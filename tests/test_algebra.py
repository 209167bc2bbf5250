import random

import pytest

from gpdalg import (
    AlgebraElement,
    GroupoidMismatchError,
    all_bisections,
    basis_element,
    bisection_inv,
    bisection_mul,
    convolve,
    indicator,
    involution,
    left_mult_matrix,
    pair_groupoid,
    right_mult_matrix,
    ring_from_spec,
    unit_element,
    zero_element,
)

from gpdalg.ideals import _arrow_actions
from gpdalg.modules import regular_rep

from conftest import (named_pool, reference_convolve,
                      reference_left_mult_matrix,
                      reference_right_mult_matrix, swap3, zg)

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F5 = ring_from_spec("fp:5")
Z4 = ring_from_spec("zn:4")


def rand_elt(g, ring, rng):
    if ring.kind == "rationals":
        return AlgebraElement(g, ring, [rng.randint(-4, 4)
                                        for _ in range(g.n_arrows)])
    return AlgebraElement(g, ring, [rng.randrange(ring.modulus)
                                    for _ in range(g.n_arrows)])


def test_pair_groupoid_gives_matrix_units():
    g = pair_groupoid(2)
    # arrow (i <- j) has id i*2 + j... no: id j*? -- read off endpoints
    by_pair = {(g.r(a), g.d(a)): a for a in range(g.n_arrows)}
    for (i, j), a in by_pair.items():
        for (k, l), b in by_pair.items():
            prod = basis_element(g, Q, a) * basis_element(g, Q, b)
            if j == k:
                assert prod == basis_element(g, Q, by_pair[(i, l)])
            else:
                assert prod.is_zero()


def test_nilpotent_augmentation_over_f2():
    g = zg(2)
    f = AlgebraElement(g, F2, [1, 1])  # 1 + t
    assert (f * f).is_zero()
    assert not f.is_zero()


def test_unit_element_is_identity():
    for name, g in named_pool():
        for ring in (Q, F2, Z4):
            one = unit_element(g, ring)
            rng = random.Random(11)
            f = rand_elt(g, ring, rng)
            assert one * f == f
            assert f * one == f


def test_associativity_random():
    rng = random.Random(23)
    for g in (swap3(), pair_groupoid(3), zg(4)):
        for ring in (Q, F5, Z4):
            for _ in range(8):
                f, h, k = (rand_elt(g, ring, rng) for _ in range(3))
                assert (f * h) * k == f * (h * k)
                assert f * (h + k) == f * h + f * k
                assert (h + k) * f == h * f + k * f


def test_scaling_commutes_with_convolution():
    rng = random.Random(5)
    g = swap3()
    for _ in range(5):
        f, h = rand_elt(g, F5, rng), rand_elt(g, F5, rng)
        assert (3 * f) * h == 3 * (f * h)
        assert f * (3 * h) == 3 * (f * h)


def test_involution_is_star():
    rng = random.Random(17)
    for g in (swap3(), zg(4), pair_groupoid(2)):
        for ring in (Q, F5):
            f, h = rand_elt(g, ring, rng), rand_elt(g, ring, rng)
            assert involution(f * h) == involution(h) * involution(f)
            assert involution(involution(f)) == f
            assert involution(f + h) == involution(f) + involution(h)
            assert f.star() == involution(f)


def test_indicator_convolution_is_bisection_product():
    for g in (pair_groupoid(2), zg(3), swap3()):
        bis = all_bisections(g)
        for U in bis:
            for V in bis:
                left = indicator(g, F2, U) * indicator(g, F2, V)
                right = indicator(g, F2, bisection_mul(g, U, V))
                assert left == right
        for U in bis:
            assert involution(indicator(g, Q, U)) \
                == indicator(g, Q, bisection_inv(g, U))


def test_mult_matrices_agree_with_convolution():
    rng = random.Random(31)
    g = swap3()
    for a in range(g.n_arrows):
        L = left_mult_matrix(g, F5, a)
        R = right_mult_matrix(g, F5, a)
        f = rand_elt(g, F5, rng)
        assert L.apply(f.coeffs) == (basis_element(g, F5, a) * f).coeffs
        assert R.apply(f.coeffs) == (f * basis_element(g, F5, a)).coeffs


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3", "zn:4"])
def test_mult_matrices_match_reference(spec):
    # The one builder places only arrow a's own composites; the reference
    # scans the whole composition table and coerces every entry.
    ring = ring_from_spec(spec)
    for name, g in named_pool():
        for a in range(g.n_arrows):
            for got, want in ((left_mult_matrix(g, ring, a),
                               reference_left_mult_matrix(g, ring, a)),
                              (right_mult_matrix(g, ring, a),
                               reference_right_mult_matrix(g, ring, a))):
                assert got == want, (name, a)
                assert [type(x) for x in got.entries] \
                    == [type(x) for x in want.entries], (name, a)


@pytest.mark.parametrize("spec", ["q", "fp:3"])
def test_arrow_actions_are_built_without_coercion(spec, monkeypatch):
    # Their 0/1 entries are the ring's own zero and one, so building the
    # regular module and the ideal actions coerces nothing.
    ring = ring_from_spec(spec)
    calls = []
    coerce = type(ring).coerce

    def counted(self, x):
        calls.append(x)
        return coerce(self, x)

    monkeypatch.setattr(type(ring), "coerce", counted)
    g = pair_groupoid(5)
    assert regular_rep(g, ring).dim == 25
    assert len(_arrow_actions(g, ring)) == 2 * 13
    assert calls == []
    assert ring.coerce(2) is not None and len(calls) == 1


def test_support_and_zero():
    g = zg(3)
    z = zero_element(g, Q)
    assert z.is_zero() and z.support() == ()
    f = basis_element(g, Q, 1) + basis_element(g, Q, 2)
    assert f.support() == (1, 2)


def test_mixed_groupoids_rejected():
    f = unit_element(zg(2), Q)
    h = unit_element(zg(3), Q)
    with pytest.raises(GroupoidMismatchError):
        f * h


def test_convolve_function_form():
    g = zg(4)
    t = basis_element(g, F2, 1)
    assert convolve(t, t) == basis_element(g, F2, 2)


def _check_coeffs(got, want):
    assert got == want and hash(got) == hash(want)
    assert [type(x) for x in got.coeffs] == [type(x) for x in want.coeffs]


@pytest.mark.parametrize("spec", ("q", "fp:7", "zn:12"))
def test_arithmetic_matches_dense_reference(spec):
    # Each operation against its coefficients computed one coerced entry
    # at a time: values, hashes and entry types, zero divisors included
    # (3 * 4 and 4 + 8 vanish in Z/12).
    ring = ring_from_spec(spec)
    rng = random.Random("arithmetic/" + spec)
    co = ring.coerce
    scalars = [0, 1, -1, 3, 4, 6, "2/3"] if ring.size is None \
        else [0, 1, -1, 3, 4, 6]
    for g in (zg(3), zg(4), pair_groupoid(2), swap3()):
        n = g.n_arrows
        pool = [rand_elt(g, ring, rng) for _ in range(4)]
        pool += [AlgebraElement(g, ring, [3] * n),
                 AlgebraElement(g, ring, [4] * n),
                 AlgebraElement(g, ring, [8] * n)]
        for f in pool:
            c = rng.choice(scalars)
            for got, want in ((-f, [co(-a) for a in f.coeffs]),
                              (f.scale(c), [co(co(c) * a) for a in f.coeffs]),
                              (c * f, [co(co(c) * a) for a in f.coeffs])):
                _check_coeffs(got, AlgebraElement(g, ring, want))
            for h in pool:
                pairs = list(zip(f.coeffs, h.coeffs))
                for got, want in (
                        (f + h, [co(a + b) for a, b in pairs]),
                        (f - h, [co(a - b) for a, b in pairs]),
                        (f * h, reference_convolve(f, h)),
                        (convolve(f, h), reference_convolve(f, h))):
                    _check_coeffs(got, AlgebraElement(g, ring, want))

