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
from operator import attrgetter


# A decimal with an exponent part, in any form Fraction would accept: digits
# (underscores allowed), an optional point, e or E, then signed digits.
_EXPONENT = re.compile(r"[+-]?(?=\.?\d)[\d_]*(?:\.[\d_]*)?[eE][+-]?\d[\d_]*")


def _from_text(text: str) -> Fraction:
    """Fraction of a "p/q" or decimal string; a ValueError names its cause:
    an exponent part, a zero denominator or a run of digits past Python's
    int/str limit.  An exponent part is refused before Fraction sees it:
    Fraction expands 1e-999999999 digit by digit."""
    text = text.strip()
    if _EXPONENT.fullmatch(text):
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


class _Value:
    """An immutable exact value whose value is its class and its `_fields`:
    `==` holds only within one class, the hash and the `Name(field=...)`
    repr read the fields, copy and pickle rebuild through the constructor,
    and attributes can be neither assigned nor deleted.  A subclass sets its
    attributes with `object.__setattr__` or through `vars(self)`."""

    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._get = attrgetter(*cls._fields)  # the field tuple, built once per class

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._get(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._get(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: values are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: values are immutable")
