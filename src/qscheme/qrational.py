"""Exact rational scalars.

The engine computes everything over arbitrary-precision rationals so that
every identity check is a strict equality.  `fractions.Fraction` already
keeps values reduced with a positive denominator and prints as "p/q"
(or "p" when the denominator is 1), which is exactly the wire format used
in JSON payloads, so it is used directly as the scalar type.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction


def _from_text(text: str) -> Fraction:
    """Fraction of a "p/q" or decimal string; a ValueError names its cause:
    an exponent part, a zero denominator or a run of digits past Python's
    int/str limit.  An exponent part is refused before Fraction sees it:
    Fraction expands 1e-999999999 digit by digit."""
    text = text.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"not a rational: {text!r} has an exponent part")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational: {text!r} has a zero denominator") from exc
    except ValueError as exc:
        limit = getattr(sys, "get_int_max_str_digits", int)()
        too_long = limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit
        cause = f" has more than {limit} digits" if too_long else ""
        raise ValueError(f"not a rational: {text!r}{cause}") from exc


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


def admissible_q(q: Fraction) -> bool:
    """Base values must avoid 0 and +/-1 so q**k never revisits 1."""
    return q != 0 and q != 1 and q != -1
