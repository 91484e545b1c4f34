"""Exact coefficient arithmetic: rationals and the quadratic extension Q(z).

Every coefficient in the package is either a plain ``fractions.Fraction`` or a
``Scalar`` a + b*z, where z is a primitive cube root of unity satisfying
z**2 = -1 - z.  Scalars with b == 0 compare equal to the corresponding
rational, so the two kinds mix freely inside state coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: largest decimal exponent a rational in text may carry ("1e1000"); a
#: larger one is refused on the text, since ``Fraction`` expands it into an
#: exact integer before any range check (seconds at 10^6 digits)
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)")
#: where a + or - is joined to what precedes it: after an operator or "(",
#: or in a number's exponent ("2.5e-3")
_JOINED_SIGN = re.compile(r"(?<=[-+*/(])|(?<=[\d.][eE])")


def parse_rational(text: str) -> Fraction:
    """Fraction(text), the one reader of rationals in text.  ValueError on
    malformed text, a zero denominator, or a decimal exponent beyond
    MAX_DECIMAL_EXPONENT in size, found on the text before Fraction sees
    it."""
    match = _EXPONENT.search(text)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or \
                int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"exponent in {text!r} beyond "
                             f"{MAX_DECIMAL_EXPONENT} in size")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Scalar:
    """Element a + b*z of Q(z), z a primitive cube root of unity."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __sub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a1 + b1 z)(a2 + b2 z) with z^2 = -1 - z
        bb = self.b * o.b
        return Scalar(self.a * o.a - bb, self.a * o.b + self.b * o.a - bb)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse, via the norm N(a + b*z) = a^2 - a*b + b^2."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(z)")
        # conjugate / norm
        return Scalar((self.a - self.b) / n, -self.b / n)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "Scalar":
        """The automorphism z -> z^2 = -1 - z; fixes rationals."""
        return Scalar(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    # -- text ------------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            zpart = "z"
        elif self.b == -1:
            zpart = "-z"
        else:
            zpart = f"{self.b}*z"
        if self.a == 0:
            return zpart
        sign = "+" if self.b > 0 else "-"
        mag = zpart.lstrip("-")
        return f"{self.a} {sign} {mag}"

    def __repr__(self):
        return f"Scalar({self.a!r}, {self.b!r})"


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return NotImplemented


ZETA = Scalar(0, 1)


def split_terms(text: str, what: str = "scalar") -> list:
    """The terms of text, spaces removed, each with its leading signs: the
    text is cut at each + or - outside parentheses that follows neither an
    operator (+ - * / or "(") nor the e or E of a number's exponent
    ("2.5e-3").  ValueError on empty text or unbalanced parentheses."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError(f"empty {what}")
    terms = []
    start = depth = 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch in "+-" and depth == 0 and i and not _JOINED_SIGN.match(s, i):
            terms.append(s[start:i])
            start = i
    if depth:
        raise ValueError(f"unbalanced parentheses in {what} {text!r}")
    terms.append(s[start:])
    return terms


def parse_scalar(text: str) -> Scalar:
    """Parse "a + b*z" style input; bare "z" is accepted for the root.

    Each term from ``split_terms`` takes its sign from its first character,
    and its number is read by ``parse_rational``.  ValueError on bad text.
    """
    parts = [_ZERO, _ZERO]   # a, b
    for term in split_terms(text):
        body = term.lstrip("+-")
        is_z = body.endswith("z")
        if is_z:
            body = body[:-1].rstrip("*")
        coef = _ONE if is_z and body == "" else parse_rational(body)
        parts[is_z] += -coef if term.startswith("-") else coef
    return Scalar(*parts)
