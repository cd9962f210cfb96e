"""Exact scalar arithmetic: prime fields GF(p) and arbitrary-precision rationals.

Scalars are plain Python values so they hash and compare directly:
canonical residues in [0, p) for GF(p), ``fractions.Fraction`` (always
reduced) for the rationals.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """Arithmetic context: GF(p) when ``p`` is a prime, rationals when ``p`` is None."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p}")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def name(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    def of(self, x: int | Fraction) -> Scalar:
        """Cast an integer (or Fraction, over the rationals) into the field."""
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"cannot cast {x!r} into {self.name}")
        if self.p is None:
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"cannot cast {x} into {self.name}")
            x = x.numerator
        return x % self.p

    @property
    def zero(self) -> Scalar:
        return self.of(0)

    @property
    def one(self) -> Scalar:
        return self.of(1)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def format(self, a: Scalar) -> str:
        return str(a)

    def parse(self, text: str) -> Scalar:
        try:
            return self.of(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad {self.name} scalar {text!r}") from exc

    def __str__(self) -> str:
        return self.name


def GF(p: int) -> Field:
    return Field(p)


QQ = Field(None)
GF2 = Field(2)
