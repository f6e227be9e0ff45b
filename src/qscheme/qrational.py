"""Exact rational scalars.

The engine computes everything over arbitrary-precision rationals so that
every identity check is a strict equality.  `fractions.Fraction` already
keeps values reduced with a positive denominator and prints as "p/q"
(or "p" when the denominator is 1), which is exactly the wire format used
in JSON payloads, so it is used directly as the scalar type.
"""

from __future__ import annotations

from fractions import Fraction

def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" string; raises ValueError on malformed input."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def admissible_q(q: Fraction) -> bool:
    """Base values must avoid 0 and +/-1 so q**k never revisits 1."""
    return q != 0 and q != 1 and q != -1
