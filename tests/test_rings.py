from fractions import Fraction

import pytest

import gpdalg.rings
from gpdalg import (
    ConstructionError,
    IntegersMod,
    PrimeField,
    RationalField,
    canonical_rows,
    ring_from_spec,
)


def test_spec_round_trip():
    for spec in ("q", "fp:2", "fp:3", "fp:5", "zn:4", "zn:6", "zn:12"):
        assert ring_from_spec(spec).spec_string() == spec


def test_bad_specs_rejected():
    for spec in ("fp:4", "fp:1", "fp:0", "zn:1", "zn:0", "zn:-3",
                 "gf:2", "fp:", "zn:x", ""):
        with pytest.raises(ConstructionError):
            ring_from_spec(spec)


def test_rational_arithmetic():
    R = RationalField()
    a = R.coerce(Fraction(1, 3))
    b = R.coerce(2)
    assert R.mul(a, b) == Fraction(2, 3)
    assert R.add(a, R.neg(a)) == R.zero
    assert R.inv(Fraction(3, 7)) == Fraction(7, 3)


def test_prime_field_inverses():
    F = PrimeField(5)
    for a in range(1, 5):
        assert F.mul(a, F.inv(a)) == F.one
    assert F.coerce(-1) == 4
    assert F.coerce(Fraction(1, 2)) == 3
    with pytest.raises(ConstructionError):
        PrimeField(6)


def test_integers_mod_basics():
    R = IntegersMod(6)
    assert R.add(4, 5) == 3
    assert R.mul(4, 5) == 2
    assert R.coerce(-1) == 5
    assert sorted(R.elements()) == [0, 1, 2, 3, 4, 5]
    assert R.size == 6
    with pytest.raises(ConstructionError):
        IntegersMod(1)


def test_big_modulus_needs_no_factoring(monkeypatch):
    # Building Z/n and eliminating over it never factors n.
    def refuse(n):
        raise AssertionError("factored %d" % n)

    monkeypatch.setattr(gpdalg.rings, "_prime_factors", refuse)
    n = 10 ** 30 + 57
    R = ring_from_spec("zn:%d" % n)
    assert R.modulus == n
    assert canonical_rows(R, [(3, 6), (0, n - 1)], 2) == ((1, 0), (0, 1))
    assert canonical_rows(R, [(2, 4), (1, 2)], 2) == ((1, 2),)


def test_residue_field():
    assert IntegersMod(4).residue_field() == PrimeField(2)
    assert IntegersMod(9).residue_field() == PrimeField(3)
    assert IntegersMod(8).residue_field() == PrimeField(2)
    assert IntegersMod(6).residue_field() is None


def test_ring_equality_and_hash():
    assert ring_from_spec("fp:3") == ring_from_spec("fp:3")
    assert ring_from_spec("fp:3") != ring_from_spec("zn:3")
    assert ring_from_spec("q") == RationalField()
    assert len({ring_from_spec(s) for s in ("q", "q", "fp:2", "zn:4")}) == 3


def test_coerce_vector():
    R = PrimeField(3)
    assert R.coerce_vector([1, -1, 4, "2"]) == (1, 2, 1, 2)
    with pytest.raises(ConstructionError):
        IntegersMod(4).coerce_vector([Fraction(1, 2)])


def test_coerce_rejects_malformed_strings():
    for spec in ("q", "fp:3", "zn:4"):
        R = ring_from_spec(spec)
        for text in ("a", "", "1/0", "1.5.2", "1e3"):
            with pytest.raises(ConstructionError):
                R.coerce(text)
    assert RationalField().coerce("-3/6") == Fraction(-1, 2)
    assert IntegersMod(4).coerce("-3") == 1
