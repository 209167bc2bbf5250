from fractions import Fraction

import pytest

import gpdalg.rings
from gpdalg import (
    ConstructionError,
    IntegersMod,
    UnsupportedRingError,
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
    assert R.coerce(a * b) == Fraction(2, 3)
    assert R.coerce(a + -a) == R.zero
    assert R.inv(Fraction(3, 7)) == Fraction(7, 3)


def test_prime_field_inverses():
    F = PrimeField(5)
    for a in range(1, 5):
        assert F.coerce(a * F.inv(a)) == F.one
    assert F.coerce(-1) == 4
    assert F.coerce(Fraction(1, 2)) == 3
    with pytest.raises(ConstructionError):
        PrimeField(6)


def test_integers_mod_basics():
    R = IntegersMod(6)
    assert R.coerce(4 + 5) == 3
    assert R.coerce(4 * 5) == 2
    assert R.coerce(-1) == 5
    assert sorted(R.elements()) == [0, 1, 2, 3, 4, 5]
    assert R.size == 6
    with pytest.raises(ConstructionError):
        IntegersMod(1)


def test_big_modulus_needs_no_factoring(monkeypatch):
    # Building Z/n and eliminating over it never factors n.
    def refuse(n):
        raise AssertionError("factored %d" % n)

    monkeypatch.setattr(gpdalg.rings, "is_prime", refuse)
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


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _trial_division_base(n):
    """The prime p with n = p^k, or None."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def test_is_prime_matches_trial_division():
    for n in range(-3, 20000):
        assert gpdalg.rings.is_prime(n) == _trial_division_is_prime(n), n


def test_residue_field_matches_trial_division():
    for n in range(2, 20000):
        F = IntegersMod(n).residue_field()
        assert (F.modulus if F else None) == _trial_division_base(n), n


def test_is_prime_on_strong_pseudoprimes():
    # Strong pseudoprimes to the first 7, 11 and 12 prime bases; the
    # thirteenth base or an earlier one exposes each.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not gpdalg.rings.is_prime(n)
    m = 2 ** 61 - 1
    assert gpdalg.rings.is_prime(m)
    assert ring_from_spec("zn:%d" % m ** 3).residue_field() == PrimeField(m)
    assert IntegersMod(m * (m + 2)).residue_field() is None
    # The least strong pseudoprime to all 13 bases: undecided, not guessed.
    with pytest.raises(UnsupportedRingError, match="3317044064679887385961981"):
        gpdalg.rings.is_prime(3317044064679887385961981)


def test_finite_coerce_pins_every_input_kind():
    for R in (PrimeField(5), IntegersMod(6)):
        n = R.modulus
        assert [R.coerce(x) for x in (0, 7, -1, -13, 10 ** 20)] \
            == [0, 7 % n, n - 1, -13 % n, 10 ** 20 % n]
        for flag in (True, False):
            with pytest.raises(ConstructionError):
                R.coerce(flag)
        assert [R.coerce(x) for x in ("4", "-2", " 3 ")] \
            == [4 % n, -2 % n, 3]
        assert R.coerce(Fraction(-9, 1)) == -9 % n
    assert PrimeField(5).coerce(Fraction(3, 4)) == 2
    assert IntegersMod(6).coerce(Fraction(1, 5)) == 5
    for bad in (Fraction(1, 3), 1.0, None, "x"):
        with pytest.raises(ConstructionError):
            IntegersMod(6).coerce(bad)


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


def test_coerce_rejects_booleans():
    # JSON true once coerced to 1 on every ring.
    for spec in ("q", "fp:3", "zn:4"):
        R = ring_from_spec(spec)
        for flag in (True, False):
            with pytest.raises(ConstructionError):
                R.coerce(flag)
        assert R.coerce(1) == R.one
