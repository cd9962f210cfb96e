from fractions import Fraction

import pytest

from simatroid import GF, GF2, QQ, Field


def test_prime_validation():
    for p in (2, 3, 5, 7, 11, 97):
        assert GF(p).p == p
    for bad in (0, 1, 4, 6, 9, 15, -3):
        with pytest.raises(ValueError):
            GF(bad)


def test_canonical_residues():
    F = GF(7)
    assert F.of(10) == 3
    assert F.of(-1) == 6
    assert F.of(Fraction(6)) == 6
    # only integral values embed into a prime field
    with pytest.raises(ValueError):
        F.of(Fraction(1, 2))


def test_arithmetic_matches_fraction_oracle():
    # same computation over GF(p) and over Q reduced mod p must agree
    F = GF(13)
    vals = [3, 7, 12, 1, 9]
    acc_p = F.zero
    acc_q = Fraction(0)
    for i, v in enumerate(vals):
        if i % 2:
            acc_p = F.mul(acc_p, F.of(v))
            acc_q *= v
        else:
            acc_p = F.add(acc_p, F.of(v))
            acc_q += v
    assert acc_p == acc_q.numerator % 13


def test_inverses():
    for p in (2, 3, 5, 11):
        F = GF(p)
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == F.one
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)


def test_elements_enumeration():
    # GF(p) has exactly the residues 0..p-1; the rationals reduce nothing
    assert sorted({GF(5).of(a) for a in range(-10, 10)}) == [0, 1, 2, 3, 4]
    assert QQ.of(7) == Fraction(7) and QQ.of(-7) == Fraction(-7)


def test_names_and_equality():
    assert GF(2) == GF2
    assert GF(2).name == "GF(2)"
    assert QQ.name == "QQ"
    assert not QQ.is_finite and GF(3).is_finite
    assert GF(3) != GF(5)


def test_format_parse_round_trip():
    F = GF(7)
    for a in range(7):
        assert F.parse(F.format(a)) == a
    for s in ("3/2", "-5", "0", "17"):
        assert QQ.parse(QQ.format(QQ.parse(s))) == QQ.parse(s)
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert GF(5).parse("7") == 2


def test_field_rejects_bad_input():
    with pytest.raises(ValueError):
        Field(10)
    with pytest.raises(ValueError):
        GF(5).of(1.5)
