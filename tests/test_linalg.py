import itertools
import math
import random

import pytest

from gpdalg import (
    BoundExceededError,
    Matrix,
    NonFreeQuotientError,
    Subspace,
    canonical_rows,
    left_kernel,
    mat_kernel,
    ring_from_spec,
    subspace_intersect,
    subspace_preimage,
)

from gpdalg.linalg import _unit_mult, closure, nonzero_vectors

from conftest import (
    RING_SPECS,
    all_subspaces,
    brute_span,
    reference_closure,
    reference_left_kernel,
    reference_mat_kernel,
    reference_matmul,
    reference_subspace_intersect,
    reference_subspace_preimage,
)

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")
F5 = ring_from_spec("fp:5")
Z4 = ring_from_spec("zn:4")
Z6 = ring_from_spec("zn:6")


def test_matrix_ops():
    A = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    B = Matrix.from_rows(Q, [[0, 1], [1, 0]])
    assert (A * B).to_lists() == [[2, 1], [4, 3]]
    assert (A + B).to_lists() == [[1, 3], [4, 4]]
    assert A.transpose().to_lists() == [[1, 3], [2, 4]]
    assert A.apply((1, 0)) == (1, 3)
    I = Matrix.identity(Q, 2)
    assert A * I == A and I * A == A
    assert Matrix.zeros(Q, 2, 2).is_zero()


def _random_matrix(rng, ring, nrows, ncols, density):
    def entry():
        if rng.random() >= density:
            return 0
        if ring.size is None:
            return "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randrange(1, ring.size)
    return Matrix(ring, nrows, ncols,
                  [entry() for _ in range(nrows * ncols)])


@pytest.mark.parametrize("spec", RING_SPECS)
def test_matmul_matches_reference(spec):
    ring = ring_from_spec(spec)
    rng = random.Random(spec)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1),
              (3, 3, 3), (2, 5, 4), (5, 1, 3), (6, 6, 6)]
    for density in (0, 0.2, 1):
        for n, k, c in shapes:
            for _ in range(3):
                A = _random_matrix(rng, ring, n, k, density)
                B = _random_matrix(rng, ring, k, c, density)
                C = _random_matrix(rng, ring, n, k, density)
                for got, want in (
                        (A * B, reference_matmul(A, B)),
                        (A + C, Matrix(ring, n, k,
                                       [ring.add(x, y) for x, y
                                        in zip(A.entries, C.entries)])),
                        (A.transpose(), Matrix(ring, k, n,
                                               [A.at(i, j) for j in range(k)
                                                for i in range(n)]))):
                    assert got == want
                    # Entry for entry, type included: the product, sum and
                    # transpose skip the coercion that the reference runs.
                    assert [type(x) for x in got.entries] \
                        == [type(x) for x in want.entries]


@pytest.mark.parametrize("spec", RING_SPECS + ("zn:8",))
def test_closure_matches_reference(spec):
    # zn:8 seeds with non-unit entries give spans that are not free.
    ring = ring_from_spec(spec)
    rng = random.Random("closure/" + spec)
    for dim in range(1, 6):
        for nmaps in range(4):
            for density in (0.2, 0.5):
                maps = [_random_matrix(rng, ring, dim, dim, density)
                        for _ in range(nmaps)]
                for nseeds in (0, 1, 2):
                    seeds = [tuple(rng.randrange(ring.size or 7)
                                   if rng.random() < 0.5 else 0
                                   for _ in range(dim))
                             for _ in range(nseeds)]
                    space = Subspace(ring, dim, seeds)
                    assert closure(maps, space) \
                        == reference_closure(maps, space), (dim, seeds)


@pytest.mark.parametrize("spec", ("q", "fp:2", "fp:3", "fp:5", "zn:4",
                                  "zn:6", "zn:8", "zn:9", "zn:12"))
def test_kernels_match_reference(spec):
    # The four kernels share one relation solver; the references are the
    # transpose-and-kernel routes it replaced.
    ring = ring_from_spec(spec)
    rng = random.Random("kernels/" + spec)
    for n in range(5):
        for k in range(5):
            for density in (0.3, 0.8):
                A = _random_matrix(rng, ring, n, k, density)
                assert mat_kernel(A) == reference_mat_kernel(A)
                assert left_kernel(A) == reference_left_kernel(A)
                if n:
                    target = Subspace(ring, n, _random_matrix(
                        rng, ring, rng.randrange(3), n, density).rows())
                    assert subspace_preimage(A, target) \
                        == reference_subspace_preimage(A, target)
                    other = Subspace(ring, k, _random_matrix(
                        rng, ring, rng.randrange(4), k, density).rows())
                    rows = Subspace(ring, k, A.rows())
                    assert subspace_intersect(rows, other) \
                        == reference_subspace_intersect(rows, other)


def test_unit_mult_matches_scan():
    def scan(a, n):
        g = math.gcd(a, n)
        return next(u for u in range(1, n)
                    if math.gcd(u, n) == 1 and (u * a) % n == g)
    for n in range(2, 301):
        for a in range(1, n):
            assert _unit_mult(a, n) == scan(a, n), (a, n)


def test_rref_canonical_and_idempotent():
    rows = [(2, 4, 2), (1, 2, 3), (3, 6, 5)]
    can = canonical_rows(Q, [Q.coerce_vector(r) for r in rows], 3)
    assert can == ((1, 2, 0), (0, 0, 1))
    assert canonical_rows(Q, list(can), 3) == can


def test_howell_canonical_frozen():
    # over Z/4 the span of (2,1) needs a second saturation row
    S = Subspace(Z4, 2, [(2, 1)])
    assert S.basis == ((2, 1), (0, 2))
    assert S.element_count() == 4
    assert sorted(brute_span(Z4, [(2, 1)], 2)) == sorted(
        [(0, 0), (2, 1), (0, 2), (2, 3)])


def test_howell_equal_pivot_terminates():
    # An incoming row whose leading entry equals the pivot's used to take
    # over the pivot slot, and saturation then swapped two rows forever.
    Z8 = ring_from_spec("zn:8")
    gens = [(1, 1, 1, 0, 0), (6, 0, 0, 1, 0), (0, 6, 0, 0, 1)]
    S = Subspace(Z8, 5, gens)
    assert S.basis == ((1, 1, 1, 0, 0), (0, 2, 0, 0, 3), (0, 0, 2, 1, 1),
                       (0, 0, 0, 4, 0), (0, 0, 0, 0, 4))
    assert brute_span(Z8, S.basis, 5) == brute_span(Z8, gens, 5)


def test_howell_span_matches_brute_force():
    rng = random.Random(11)
    for n in (4, 6, 8, 9, 12):
        ring = ring_from_spec("zn:%d" % n)
        for _ in range(40):
            dim = rng.randint(1, 3)
            gens = [tuple(rng.randrange(n) for _ in range(dim))
                    for _ in range(rng.randint(1, 4))]
            S = Subspace(ring, dim, gens)
            span = brute_span(ring, gens, dim)
            assert brute_span(ring, S.basis, dim) == span
            assert S.element_count() == len(span)
            for v in itertools.product(range(n), repeat=dim):
                assert S.contains(v) == (v in span)


def test_canonical_form_is_generator_independent():
    rng = random.Random(7)
    for ring in (F3, Z4, Z6):
        for _ in range(25):
            dim = rng.randint(1, 4)
            gens = [tuple(rng.randrange(ring.modulus) for _ in range(dim))
                    for _ in range(rng.randint(1, 3))]
            S = Subspace(ring, dim, gens)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            # throw in redundant combinations of the originals
            extra = tuple(ring.add(gens[0][i], gens[-1][i])
                          for i in range(dim))
            T = Subspace(ring, dim, shuffled + [extra])
            assert S.basis == T.basis
            assert S == T


def test_membership_matches_brute_force():
    for ring in (F2, Z4):
        gens = [(1, 2, 0), (0, 2, 2)]
        gens = [ring.coerce_vector(g) for g in gens]
        S = Subspace(ring, 3, gens)
        expected = brute_span(ring, gens, 3)
        for v in itertools.product(ring.elements(), repeat=3):
            assert S.contains(v) == (v in expected)
        assert S.element_count() == len(expected)


def test_kernel_is_complete():
    A = Matrix.from_rows(Z4, [[2, 1, 0], [0, 2, 2]])
    K = mat_kernel(A)
    sols = {v for v in itertools.product(range(4), repeat=3)
            if all(x == 0 for x in A.apply(v))}
    for v in K.basis:
        assert all(x == 0 for x in A.apply(v))
    assert K.element_count() == len(sols)
    for v in sols:
        assert K.contains(v)


def test_left_kernel():
    A = Matrix.from_rows(F3, [[1, 2], [2, 4 % 3], [0, 0]])
    L = left_kernel(A)
    for v in L.basis:
        prod = tuple(
            F3.add(F3.mul(v[0], A.at(0, j)),
                   F3.add(F3.mul(v[1], A.at(1, j)), F3.mul(v[2], A.at(2, j))))
            for j in range(2))
        assert prod == (0, 0)
    assert L.num_rows == 2


def test_intersection_exhaustive():
    a = Subspace(Z4, 3, [(1, 1, 0), (0, 2, 0)])
    b = Subspace(Z4, 3, [(1, 0, 1), (0, 2, 2)])
    c = subspace_intersect(a, b)
    for v in itertools.product(range(4), repeat=3):
        assert c.contains(v) == (a.contains(v) and b.contains(v))


def test_preimage_exhaustive():
    A = Matrix.from_rows(Z4, [[1, 2], [2, 0]])
    target = Subspace(Z4, 2, [(2, 0), (0, 2)])
    P = subspace_preimage(A, target)
    for v in itertools.product(range(4), repeat=2):
        assert P.contains(v) == target.contains(A.apply(v))


def test_subspace_counts_over_small_fields():
    assert len(list(all_subspaces(F2, 4))) == 67
    assert len(list(all_subspaces(F3, 2))) == 6
    assert len(list(all_subspaces(F2, 3))) == 16
    for S in all_subspaces(F3, 2):
        assert Subspace(F3, 2, list(S.basis)) == S
    assert len(set(all_subspaces(F2, 4))) == 67


def test_nonzero_vectors_bound():
    vecs = list(nonzero_vectors(F3, 2, 9))
    assert len(vecs) == 8 == len(set(vecs))
    assert (0, 0) not in vecs
    with pytest.raises(BoundExceededError,
                       match=r"state space 3\^2 exceeds bound 8"):
        nonzero_vectors(F3, 2, 8)
    with pytest.raises(BoundExceededError,
                       match=r"state space 3\^6 exceeds bound 100"):
        nonzero_vectors(F3, 6, 100)


def test_coordinates_need_unit_pivots():
    free = Subspace(Z4, 2, [(1, 3)])
    assert free.coordinates((3, 1)) == (3,)
    crooked = Subspace(Z4, 2, [(2, 1), (0, 2)])
    with pytest.raises(NonFreeQuotientError):
        crooked.coordinates((2, 1))


def test_zero_and_full():
    Z = Subspace.zero(Q, 3)
    F = Subspace.full(Q, 3)
    assert Z.is_zero() and not Z.is_full()
    assert F.is_full() and F.contains_subspace(Z)
    assert Z.join(F) == F
    assert subspace_intersect(Z, F) == Z
