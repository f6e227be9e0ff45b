"""Exact rational scalars.

The engine computes everything over arbitrary-precision rationals so that
every identity check is a strict equality.  `fractions.Fraction` already
keeps values reduced with a positive denominator and prints as "p/q"
(or "p" when the denominator is 1), which is exactly the wire format used
in JSON payloads, so it is used directly as the scalar type.
"""

from __future__ import annotations

from fractions import Fraction


def _from_text(text: str) -> Fraction:
    """Fraction of a "p/q" or decimal string.  An exponent part is refused
    before Fraction sees it: Fraction expands 1e-999999999 digit by digit."""
    text = text.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"not a rational: {text!r} has an exponent part")
    return Fraction(text)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _from_text(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" string; raises ValueError on malformed input."""
    try:
        return _from_text(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def admissible_q(q: Fraction) -> bool:
    """Base values must avoid 0 and +/-1 so q**k never revisits 1."""
    return q != 0 and q != 1 and q != -1
