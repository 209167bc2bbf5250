import itertools
import math
import random
from fractions import Fraction

import pytest

from gpdalg import linalg, rings
from gpdalg import (
    AlgebraElement,
    BoundExceededError,
    DimensionMismatchError,
    Matrix,
    NonFreeQuotientError,
    RingMismatchError,
    Subspace,
    canonical_rows,
    Ideal,
    convolve,
    cyclic_table,
    group_groupoid,
    hom_space,
    ideal_from_generators,
    isotropy,
    left_kernel,
    mat_kernel,
    pair_groupoid,
    regular_rep,
    regular_sheaf,
    ring_from_spec,
    simple_modules_group,
    subspace_intersect,
    subspace_preimage,
)

from gpdalg.linalg import (
    _first_nonzero,
    _in_span,
    _insert,
    _table_rows,
    _unit_mult,
    closure,
    first_escape,
    invariant_lattice,
    nonzero_vectors,
    poly_at,
    restrict,
    span_vectors,
)

from conftest import (
    RING_SPECS,
    Dense,
    all_subspaces,
    brute_span,
    reference_apply,
    reference_closure,
    reference_first_escape,
    reference_howell,
    reference_insert,
    reference_invariant_lattice,
    reference_left_kernel,
    reference_mat_kernel,
    reference_matadd,
    reference_matmul,
    reference_nonzero_rows,
    reference_reduce,
    reference_rowwise_matmul,
    reference_rref,
    reference_rref_closure,
    reference_span_vectors_mod,
    reference_span_vectors_ring_ops,
    reference_subspace_intersect,
    reference_subspace_preimage,
    reference_table_rows,
    reference_transpose,
)

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")
F5 = ring_from_spec("fp:5")
Z4 = ring_from_spec("zn:4")
Z6 = ring_from_spec("zn:6")
F7 = ring_from_spec("fp:7")
Z12 = ring_from_spec("zn:12")


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


def test_matrix_sum_checks_rings_and_operands():
    with pytest.raises(RingMismatchError):
        Matrix.identity(Q, 2) + Matrix.identity(F3, 2)
    with pytest.raises(RingMismatchError):
        Matrix.identity(Z4, 2) + Matrix.identity(F2, 2)
    with pytest.raises(DimensionMismatchError):
        Matrix.identity(Q, 2) + Matrix.identity(Q, 3)
    assert Matrix.identity(Q, 2).__add__(1) is NotImplemented
    with pytest.raises(TypeError):
        Matrix.identity(Q, 2) + 1


def _random_matrix(rng, ring, nrows, ncols, density):
    def entry():
        if rng.random() >= density:
            return 0
        if ring.size is None:
            return "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randrange(1, ring.size)
    return Matrix(ring, nrows, ncols,
                  [entry() for _ in range(nrows * ncols)])


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7", "zn:12"))
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
                                       [ring.coerce(x + y) for x, y
                                        in zip(A.entries, C.entries)])),
                        (A.transpose(), Matrix(ring, k, n,
                                               [A.at(i, j) for j in range(k)
                                                for i in range(n)]))):
                    assert got == want and hash(got) == hash(want)
                    # Entry for entry, type included: the product, sum and
                    # transpose skip the coercion that the reference runs.
                    assert [type(x) for x in got.entries] \
                        == [type(x) for x in want.entries]


def _check_against_dense(M, D):
    # Every dense read of the sparse rows, type included, and the rows
    # themselves, against the old dense matrix.
    assert (M.ring, M.nrows, M.ncols) == (D.ring, D.nrows, D.ncols)
    assert M.entries == D.entries
    assert [type(x) for x in M.entries] == [type(x) for x in D.entries]
    assert M.rows() == D.rows()
    assert [M.col(j) for j in range(M.ncols)] \
        == [D.col(j) for j in range(D.ncols)]
    assert M.to_lists() == D.to_lists()
    assert M._nz == tuple(map(tuple, reference_nonzero_rows(D)))
    rebuilt = Matrix(D.ring, D.nrows, D.ncols, D.entries)
    assert M == rebuilt and hash(M) == hash(rebuilt)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_sparse_rows_match_the_dense_matrix(spec):
    ring = ring_from_spec(spec)
    rng = random.Random("sparse/" + spec)
    elems = list(range(-2, 3))
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1),
              (3, 3, 3), (2, 5, 4), (5, 1, 3), (6, 6, 6)]

    def pair(n, k, density):
        flat = [rng.choice(elems) if rng.random() < density else 0
                for _ in range(n * k)]
        return Matrix(ring, n, k, flat), Dense(ring, n, k, flat)

    for density in (0, 0.2, 0.6, 1):
        for n, k, c in shapes:
            for _ in range(3):
                A, DA = pair(n, k, density)
                B, DB = pair(k, c, density)
                C, DC = pair(n, k, density)
                _check_against_dense(A, DA)
                _check_against_dense(A * B, reference_rowwise_matmul(DA, DB))
                _check_against_dense(A + C, reference_matadd(DA, DC))
                _check_against_dense(A.transpose(), reference_transpose(DA))


@pytest.mark.parametrize("spec", RING_SPECS)
def test_cancelling_entries_leave_no_pair(spec):
    # 1 + (-1) over Q, 1 + (p - 1) over F_p and Z/4, and 2 * 2 over Z/4:
    # the result keeps no zero pair, so it equals (and hashes like) the
    # matrix written with explicit zeros.
    ring = ring_from_spec(spec)
    one, minus = ring.one, ring.coerce(-1)
    row = Matrix(ring, 1, 2, [1, 1])
    col = Matrix(ring, 2, 1, [one, minus])
    assert (row * col)._nz == ((),)
    assert (row * col).is_zero()
    A = Matrix(ring, 2, 2, [1, 0, 3, 1])
    B = Matrix(ring, 2, 2, [minus, 0, 0, 2])
    S = A + B
    assert S == Matrix(ring, 2, 2, [0, 0, 3, 3])
    assert hash(S) == hash(Matrix(ring, 2, 2, [0, 0, 3, 3]))
    assert S._nz[0] == ()
    explicit = Matrix(ring, 2, 3, [0, 1, 0, 0, 0, 0])
    sparse = Matrix._sparse(ring, 2, 3, [((1, one),), ()])
    assert explicit == sparse and hash(explicit) == hash(sparse)
    assert explicit._nz == sparse._nz
    if ring.modulus == 4:
        two = Matrix(ring, 1, 1, [2])
        assert (two * two)._nz == ((),)
        assert two * two == Matrix.zeros(ring, 1, 1)


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7", "zn:12"))
def test_apply_matches_reference(spec):
    # apply reads the stored nonzero pairs: before and after the matrix
    # serves as a right factor, and on the fresh matrices that products
    # and transposes return.
    ring = ring_from_spec(spec)
    rng = random.Random("apply/" + spec)

    def vector(n):
        return _random_matrix(rng, ring, 1, n, 0.6).entries

    for density in (0, 0.3, 1):
        for n, k, c in [(0, 3, 2), (3, 0, 2), (1, 1, 1), (3, 3, 3),
                        (2, 5, 4), (5, 1, 3), (6, 6, 6)]:
            A = _random_matrix(rng, ring, n, k, density)
            B = _random_matrix(rng, ring, k, c, density)
            x, y = vector(k), vector(c)
            assert A.apply(x) == reference_apply(A, x)
            assert B.apply(y) == reference_apply(B, y)
            AB = A * B
            assert AB == reference_matmul(A, B)
            for M, v in ((AB, y), (A * B, y), (A.transpose(), vector(n)),
                         (B.transpose() * A.transpose(), vector(n)),
                         (A, x), (B, y)):
                got, want = M.apply(v), reference_apply(M, v)
                assert got == want
                assert [type(t) for t in got] == [type(t) for t in want]


@pytest.mark.parametrize("spec", ("q", "fp:2", "fp:3", "fp:5", "fp:101"))
def test_rref_matches_reference(spec):
    # Random spans of every rank with zero and repeated rows, width 0
    # included; the join of two spans inserts one basis into the other.
    ring = ring_from_spec(spec)
    rng = random.Random("rref/" + spec)
    zero = ring.zero

    def combination(basis, width):
        row = [zero] * width
        for b in basis:
            c = ring.coerce(rng.randrange(-3, 4) if ring.size is None
                            else rng.randrange(ring.size))
            row = [ring.coerce(x + c * y) for x, y in zip(row, b)]
        return tuple(row)

    for width in range(7):
        for rank in range(width + 1):
            for density in (0.3, 0.8):
                basis = [tuple(_random_matrix(rng, ring, 1, width, density)
                               .entries) for _ in range(rank)]
                rows = [combination(basis, width) for _ in range(rank + 2)]
                rows += [(zero,) * width] + rows[:2] + basis
                rng.shuffle(rows)
                want = reference_rref(ring, [list(r) for r in rows], width)
                got = canonical_rows(ring, rows, width)
                assert got == want, (width, rows)
                assert [[type(x) for x in r] for r in got] \
                    == [[type(x) for x in r] for r in want]
                cut = rng.randrange(len(rows) + 1)
                S = Subspace(ring, width, rows[:cut])
                T = Subspace(ring, width, rows[cut:])
                assert S.join(T).basis == want
                assert S.join(T).pivots == Subspace(ring, width, rows).pivots


# Denominators 1 or a prime up to 10^6 + 3 and numerators up to 10^12:
# the integer kernel's rows grow far past the other Q tests' entries.
BIG_PRIMES = (1, 2, 3, 7, 101, 65537, 999983, 1000003)


def _big_rational(rng, density):
    if rng.random() >= density:
        return 0
    return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.choice(BIG_PRIMES))


def _big_rows(rng, nrows, width, density):
    # Random rows, then some zero rows and repeats, shuffled.
    rows = [tuple(_big_rational(rng, density) for _ in range(width))
            for _ in range(nrows)]
    rows += [(0,) * width] * rng.randrange(2)
    rows += rng.sample(rows, rng.randrange(min(len(rows), 3) + 1))
    rng.shuffle(rows)
    return rows


def _rref_of(rows, width):
    return reference_rref(Q, [list(Q.coerce_vector(r)) for r in rows], width)


def test_q_kernel_matches_reference_on_large_entries():
    rng = random.Random("big-q")
    for width in range(13):
        for nrows in (0, 1, 2, width // 2, width, width + 2):
            for density in (0.3, 1):
                rows = _big_rows(rng, nrows, width, density)
                want = _rref_of(rows, width)
                got = canonical_rows(Q, rows, width)
                assert got == want, (width, rows)
                # The normal form over Q: an int iff integral.
                assert all(type(x) is (int if x.denominator == 1
                                       else Fraction)
                           for r in got for x in r)
                cut = rng.randrange(len(rows) + 1)
                S = Subspace(Q, width, rows[:cut])
                T = Subspace(Q, width, rows[cut:])
                assert S.join(T).basis == want
                assert S.contains_subspace(T) \
                    == (_rref_of(S.basis + T.basis, width) == S.basis)
                assert T.contains_subspace(S) \
                    == (_rref_of(S.basis + T.basis, width) == T.basis)
                for v in rows[:3] + _big_rows(rng, 2, width, density):
                    assert S.contains(v) \
                        == (_rref_of(S.basis + (v,), width) == S.basis)


def test_q_spin_and_escape_match_reference_on_large_entries():
    # Sparse maps with large entries (one upper triangular), next to the
    # cyclic shift; the witness must be the Fraction loop's.
    rng = random.Random("big-q-spin")
    for width in range(1, 9):
        shift = Matrix(Q, width, width, [int(i == (j + 1) % width)
                                         for i in range(width)
                                         for j in range(width)])
        for density in (0.1, 0.3):
            for _ in range(3):
                M = Matrix(Q, width, width,
                           [_big_rational(rng, density) if j >= i else 0
                            for i in range(width) for j in range(width)])
                N = Matrix(Q, width, width,
                           [_big_rational(rng, density)
                            for _ in range(width * width)])
                for maps in ([M], [M, N], [N, shift], [M, M, shift]):
                    rows = _big_rows(rng, rng.randrange(3), width, density)
                    space = Subspace(Q, width, rows)
                    assert first_escape(maps, space) \
                        == reference_first_escape(maps, space)
                    spun = closure(maps, space)
                    assert spun.basis \
                        == reference_rref_closure(maps, Q, rows, width)
                    assert first_escape(maps, spun) is None
                    assert reference_first_escape(maps, spun) is None


@pytest.mark.parametrize("spec", ("zn:4", "zn:6", "zn:8", "zn:9"))
def test_howell_join_matches_one_canonical_form(spec):
    # A join over Z/n grows the left basis one row of the right at a time.
    ring = ring_from_spec(spec)
    rng = random.Random("join/" + spec)
    for width in range(5):
        for density in (0.3, 0.8):
            S, T = (Subspace(ring, width, _random_matrix(
                rng, ring, rng.randrange(4), width, density).rows())
                for _ in range(2))
            assert S.join(T) == Subspace(ring, width, S.basis + T.basis)


def _howell_spin(n, maps, rows, width):
    # The smallest invariant span, by batch Howell forms alone: add every
    # image of the basis until the form stops changing.
    basis = reference_howell(n, rows, width)
    while True:
        grown = reference_howell(
            n, list(basis) + [M.apply(b) for b in basis for M in maps], width)
        if grown == basis:
            return basis
        basis = grown


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 27, 36, 64))
def test_howell_table_matches_reference(n):
    # Random spans with zero and repeated rows, rows that share a leading
    # entry, and leading entries at one column that do not divide each
    # other; entries are biased to non-units, so most spans are not free.
    # For n prime the Howell form is the RREF over F_n, which is what
    # lets F_p run through the Howell table.
    ring = ring_from_spec("zn:%d" % n)
    field = ring_from_spec("fp:%d" % n) if n in (2, 3, 5, 7) else None
    rng = random.Random("howell/%d" % n)
    divisors = [d for d in range(1, n) if n % d == 0]
    clashes = [(x, y) for x in range(1, n) for y in range(1, n)
               if x % y and y % x]

    def entry(density):
        if rng.random() >= density:
            return 0
        return rng.choice(divisors) * rng.randrange(1, n) % n

    for width in range(8):
        for density in (0.3, 0.7):
            for k in (0, 1, 2, 3, 4, 5, 6) * 2:
                rows = [[entry(density) for _ in range(width)]
                        for _ in range(k)]
                if width:
                    j = rng.randrange(width)
                    x, y = rng.choice(clashes) if clashes else (1, 1)
                    for lead in (x, y, x):
                        rows.append([0] * j + [lead] + [
                            entry(density) for _ in range(width - j - 1)])
                rows += [[0] * width] + rows[:2]
                rng.shuffle(rows)
                want = reference_howell(n, rows, width)
                assert canonical_rows(ring, rows, width) == want, rows
                if field is not None:
                    assert reference_rref(field, [list(r) for r in rows],
                                          width) == want, rows
                    assert canonical_rows(field, rows, width) == want, rows
                cut = rng.randrange(len(rows) + 1)
                S = Subspace(ring, width, rows[:cut])
                T = Subspace(ring, width, rows[cut:])
                assert S.join(T).basis == want, rows
                maps = [_random_matrix(rng, ring, width, width, density)
                        for _ in range(rng.randrange(3))]
                assert closure(maps, S).basis \
                    == _howell_spin(n, maps, rows[:cut], width), rows


FINITE_KERNEL_SPECS = ("fp:2", "fp:3", "fp:5", "fp:7", "zn:4", "zn:8",
                       "zn:12")


@pytest.mark.parametrize("spec", FINITE_KERNEL_SPECS)
def test_finite_kernel_matches_the_replaced_kernels(spec):
    # Rows go one at a time into a table of the one finite kernel and
    # into one of the kernel it replaced (an RREF table by ring
    # operations over F_p, the whole-row Howell worklist over Z/n): the
    # spans grow together, the read-offs agree after every insertion,
    # and membership in the table agrees with reduction by the form.
    ring = ring_from_spec(spec)
    n = ring.modulus
    rng = random.Random("finite-kernel/" + spec)
    divisors = [d for d in range(1, n) if n % d == 0]

    def entry(density):
        if rng.random() >= density:
            return 0
        return rng.choice(divisors) * rng.randrange(1, n) % n

    for width in range(8):
        for density in (0.3, 0.7):
            for k in (1, 3, 6, 9):
                rows = [[entry(density) for _ in range(width)]
                        for _ in range(k)]
                rows += [[0] * width] + rows[:2]
                rng.shuffle(rows)
                table, ref = {}, {}
                for r in rows:
                    assert _insert(ring, table, list(r)) \
                        == reference_insert(ring, ref, list(r)), rows
                    got = _table_rows(ring, {p: list(b)
                                             for p, b in table.items()})
                    want = reference_table_rows(ring, {
                        p: list(b) for p, b in ref.items()})
                    assert got == want, rows
                    pairs = [(_first_nonzero(b), b) for b in want]
                    for v in rows[:3] + [[entry(density)
                                          for _ in range(width)]]:
                        residue = reference_reduce(ring, pairs, list(v))
                        assert _in_span(ring, table, v) \
                            == (not any(residue)), (rows, v)
                assert want == reference_howell(n, rows, width)


def test_kernels_call_no_ring_arithmetic(monkeypatch):
    # Scalars are plain numbers: no ring defines arithmetic, and nothing
    # over F_p and Z/n inverts through the ring either: the canonical
    # forms, joins, containment, normal forms, coordinates, kernels,
    # intersections and preimages, matrix products, sums and `apply`,
    # `reducer`, hom spaces and algebra arithmetic.
    for cls in vars(rings).values():
        if isinstance(cls, type) and issubclass(cls, rings.ScalarRing):
            for name in ("add", "neg", "mul", "sub"):
                assert not hasattr(cls, name), (cls, name)
    calls = []
    inputs = []
    for spec in ("fp:7", "zn:12"):
        ring = ring_from_spec(spec)
        rng = random.Random("no-ring-ops/" + spec)
        for n, k in ((3, 4), (5, 5), (6, 3)):
            A = _random_matrix(rng, ring, n, k, 0.6)
            B = _random_matrix(rng, ring, 2, k, 0.6)
            C = _random_matrix(rng, ring, 2, n, 0.6)
            inputs.append((ring, A, B, C))
    g = pair_groupoid(2)
    algebra = []
    for spec in ("fp:7", "zn:12"):
        ring = ring_from_spec(spec)
        rng = random.Random("no-ring-ops/algebra/" + spec)
        f, h = (AlgebraElement(g, ring, [rng.randrange(12) for _ in range(4)])
                for _ in range(2))
        algebra.append((regular_rep(g, ring), f, h))

    def counted(self, *args, _f=rings._FiniteRing.inv):
        calls.append("inv")
        return _f(self, *args)
    monkeypatch.setattr(rings._FiniteRing, "inv", counted)
    for ring, A, B, C in inputs:
        k = A.ncols
        S, T = Subspace(ring, k, A.rows()), Subspace(ring, k, B.rows())
        J = S.join(T)
        assert J.contains_subspace(S) and J.contains_subspace(T)
        S.contains_subspace(T)
        for space in (S, T, J, Subspace.full(ring, k)):
            for v in A.rows() + B.rows():
                space.reduce(v)
                space.contains(v)
                if space.has_unit_pivots():
                    space.coordinates(v)
                    space.reducer().apply(v)
        mat_kernel(A)
        left_kernel(A)
        subspace_intersect(S, T)
        subspace_preimage(A, Subspace(ring, A.nrows, C.rows()))
        (C * A + C * A).apply(A.row(0))
        A.transpose() * A + Matrix.identity(ring, k)
    for reg, f, h in algebra:
        hom_space(reg, reg)
        f + h, f - h, -f, f.scale(5), 3 * h, convolve(f, h)
    assert calls == []


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7", "zn:12"))
def test_subspace_reduce_matches_reference(spec):
    # The normal form read off the kernel against the reduction by ring
    # operations it replaced: values and entry types for members and
    # non-members, dimension 0 included; membership and, on unit-pivot
    # spaces, coordinates follow the same residue.
    ring = ring_from_spec(spec)
    rng = random.Random("reduce/" + spec)
    for dim in range(6):
        for k in (0, 1, 2, 4, 7):
            for density in (0.3, 0.7):
                G = _random_matrix(rng, ring, k, dim, density)
                space = Subspace(ring, dim, G.rows())
                rows = space._rows()
                combos = [_random_matrix(rng, ring, 1, k, 0.7).row(0)
                          for _ in range(3)]
                vectors = [G.transpose().apply(c) for c in combos] + [
                    _random_matrix(rng, ring, 1, dim, density).row(0)
                    for _ in range(3)]
                for v in vectors:
                    got = space.reduce(v)
                    want = tuple(reference_reduce(ring, rows, list(v)))
                    assert got == want, (G.rows(), v)
                    assert list(map(type, got)) == list(map(type, want))
                    assert space.contains(v) == (not any(want))
                    if space.has_unit_pivots():
                        assert space.coordinates(v) == (
                            None if any(want)
                            else tuple(v[p] for p in space.pivots))
                for bad in (dim + 1, dim - 1) if dim else (1,):
                    v = (ring.one,) * bad
                    message = "vector length %d in dimension %d" % (bad, dim)
                    for ask in (space.reduce, space.contains):
                        with pytest.raises(DimensionMismatchError,
                                           match=message):
                            ask(v)


@pytest.mark.parametrize("spec", ("q", "fp:2", "fp:3", "zn:4", "zn:6"))
def test_closure_stops_on_a_full_table(spec, monkeypatch):
    # The 3-cycle spins e_0 to e_1 and e_2: the table is full, with unit
    # pivots, after two insertions on every ring, and the spin stops
    # there rather than inserting e_0 again.
    ring = ring_from_spec(spec)
    cycle = Matrix(ring, 3, 3, [0, 0, 1, 1, 0, 0, 0, 1, 0])
    e0 = Subspace(ring, 3, [(1, 0, 0)])
    calls = []

    def counted(*args, _f=linalg._insert):
        calls.append(args)
        return _f(*args)
    monkeypatch.setattr(linalg, "_insert", counted)
    assert closure([cycle], e0) == Subspace.full(ring, 3)
    assert len(calls) == 2


@pytest.mark.parametrize("spec", RING_SPECS + ("zn:8", "fp:7"))
def test_closure_matches_reference(spec):
    # zn:8 seeds with non-unit entries give spans that are not free; fp:7
    # normalises by inverses other than 1 and -1.  The escape test of
    # each seed span and of its closure runs next to the spin.
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
                    spun = closure(maps, space)
                    assert spun == reference_closure(maps, space), \
                        (dim, seeds)
                    assert first_escape(maps, space) \
                        == reference_first_escape(maps, space)
                    assert first_escape(maps, spun) is None
    # Seed spaces of several rows, and spins that fill R^dim early: the
    # cyclic shift spins e_0 to everything, next to a random second map.
    for dim in range(1, 7):
        shift = Matrix(ring, dim, dim, [int(i == (j + 1) % dim)
                                        for i in range(dim)
                                        for j in range(dim)])
        for density in (0.2, 0.5, 0.9):
            other = _random_matrix(rng, ring, dim, dim, density)
            for nseeds in (1, 3, 5):
                seeds = [tuple(rng.randrange(ring.size or 7)
                               if rng.random() < density else 0
                               for _ in range(dim))
                         for _ in range(nseeds)]
                for maps in ([other], [shift, other], [other, shift]):
                    space = Subspace(ring, dim, seeds)
                    assert closure(maps, space) \
                        == reference_closure(maps, space), (dim, seeds)
                    assert first_escape(maps, space) \
                        == reference_first_escape(maps, space)
            e0 = Subspace(ring, dim, [[1] + [0] * (dim - 1)])
            assert closure([other, shift], e0) == Subspace.full(ring, dim)


@pytest.mark.parametrize("spec", ("q", "fp:2", "fp:3", "fp:5", "fp:7",
                                  "zn:4", "zn:6", "zn:8", "zn:9", "zn:12"))
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


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7",))
def test_kernels_return_canonical_relation_rows(spec):
    # mat_kernel and left_kernel hand the relation rows of one canonical
    # form straight to Subspace._trusted; they must be the canonical basis
    # (entry types included) that the coercing route builds, on every
    # shape, 0 x k and k x 0 included.
    ring = ring_from_spec(spec)
    rng = random.Random("trusted-kernels/" + spec)
    shapes = [(0, k) for k in range(4)] + [(k, 0) for k in range(4)]
    shapes += [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(40)]
    for n, k in shapes:
        A = _random_matrix(rng, ring, n, k, rng.choice((0.2, 0.5, 0.9)))
        for got, want, dim in ((mat_kernel(A), reference_mat_kernel(A), k),
                               (left_kernel(A), reference_left_kernel(A), n)):
            assert got == want, (n, k)
            assert got.pivots == want.pivots, (n, k)
            assert got.basis == canonical_rows(ring, got.basis, dim)
            assert [list(map(type, r)) for r in got.basis] \
                == [list(map(type, r)) for r in want.basis], (n, k)
    assert mat_kernel(Matrix(ring, 0, 3, [])) == Subspace.full(ring, 3)
    assert left_kernel(Matrix(ring, 3, 0, [])) == Subspace.full(ring, 3)
    assert mat_kernel(Matrix(ring, 3, 0, [])) == Subspace.zero(ring, 0)


def _random_map(rng, ring, dim):
    # A dense map, a sparse nilpotent one (strictly upper triangular, at
    # times zero, which leaves every subspace invariant) or a permutation
    # matrix.
    q = ring.modulus
    kind = rng.choice(("dense", "nilpotent", "permutation"))
    if kind == "dense":
        ent = [rng.randrange(q) for _ in range(dim * dim)]
    elif kind == "nilpotent":
        ent = [rng.randrange(q) if j > i and rng.random() < 0.5 else 0
               for i in range(dim) for j in range(dim)]
    else:
        perm = list(range(dim))
        rng.shuffle(perm)
        ent = [int(perm[i] == j) for i in range(dim) for j in range(dim)]
    return Matrix(ring, dim, dim, ent)


@pytest.mark.parametrize("spec", ("fp:2", "fp:3", "fp:5", "zn:4", "zn:6",
                                  "zn:8", "zn:9"))
def test_invariant_lattice_matches_reference(spec):
    # The join fold against the pairwise join queue over every nonzero
    # vector.  Dims stop at 4, or before 128 states: the queue's L^2 joins
    # take over a minute on the 1983 submodules of (Z/4)^4.
    ring = ring_from_spec(spec)
    rng = random.Random("lattice/" + spec)
    for dim in range(1, 5):
        if ring.modulus ** dim > 128:
            break
        for _ in range(8):
            maps = [_random_map(rng, ring, dim)
                    for _ in range(rng.choice((1, 1, 2, 3)))]
            got = invariant_lattice(maps, ring, dim, 128)
            assert got == reference_invariant_lattice(maps, ring, dim, 128), \
                (dim, [M.entries for M in maps])


def test_unit_mult_matches_scan():
    def scan(a, n):
        g = math.gcd(a, n)
        return next(u for u in range(1, n)
                    if math.gcd(u, n) == 1 and (u * a) % n == g)
    for n in range(2, 301):
        for a in range(1, n):
            assert _unit_mult(a, n) == scan(a, n), (a, n)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_canonical_rows_refuses_rows_of_the_wrong_length(spec):
    # A short row was read as a member of the span, and a long one left a
    # ragged basis.
    ring = ring_from_spec(spec)
    for rows in ([(1,)], [(1, 0), (1,)], [(1, 0, 1)], [(0, 1), (1, 0, 1)],
                 [(1,), (1, 0, 1)], [()]):
        with pytest.raises(DimensionMismatchError, match="in width 2"):
            canonical_rows(ring, rows, 2)
        with pytest.raises(DimensionMismatchError):
            Subspace(ring, 2, rows)
    assert canonical_rows(ring, [(0, 1), (1, 0)], 2) == ((1, 0), (0, 1))
    assert canonical_rows(ring, [], 2) == ()


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
            extra = tuple(ring.coerce(gens[0][i] + gens[-1][i])
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
            F3.coerce(v[0] * A.at(0, j)
                      + v[1] * A.at(1, j) + v[2] * A.at(2, j))
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
    # One vector per line over a field: the 4 lines of F_3^2.
    vecs = list(nonzero_vectors(F3, 2, 9))
    assert len(vecs) == 4 == len(set(vecs))
    assert (0, 0) not in vecs
    assert vecs == sorted(vecs)
    assert not any(tuple(F3.coerce(c * x) for x in v) == w
                   for v, w in itertools.permutations(vecs, 2)
                   for c in (1, 2))
    assert len(list(nonzero_vectors(F5, 3, 125))) == 31
    # Over Z/n the first nonzero entry is a proper divisor of n, and
    # every nonzero vector is a unit multiple of one of them.
    zn = list(nonzero_vectors(Z4, 2, 16))
    assert len(zn) == 10 == len(set(zn))
    assert zn == sorted(zn)
    assert set(zn) == {v for v in itertools.product(range(4), repeat=2)
                       if v != (0, 0) and next(x for x in v if x) in (1, 2)}
    for v in itertools.product(range(4), repeat=2):
        if v != (0, 0):
            assert any(tuple(u * x % 4 for x in w) == v
                       for w in zn for u in (1, 3))
    with pytest.raises(BoundExceededError,
                       match=r"state space 3\^2 exceeds bound 8"):
        nonzero_vectors(F3, 2, 8)
    with pytest.raises(BoundExceededError,
                       match=r"state space 3\^6 exceeds bound 100"):
        nonzero_vectors(F3, 6, 100)


def test_nonzero_vectors_list_no_ring_at_dimension_zero(monkeypatch):
    # R^0 has no nonzero vector, so R is never listed; bound 0 still
    # trips on its one state.
    R = ring_from_spec("zn:%d" % 10 ** 7)

    def refuse():
        raise AssertionError("the ring was listed")

    monkeypatch.setattr(R, "elements", refuse)
    assert list(nonzero_vectors(R, 0, 1)) == []
    with pytest.raises(BoundExceededError,
                       match=r"state space 10000000\^0 exceeds bound 0"):
        nonzero_vectors(R, 0, 0)


def test_coordinates_need_unit_pivots():
    free = Subspace(Z4, 2, [(1, 3)])
    assert free.coordinates((3, 1)) == (3,)
    assert free.coordinates((1, 1)) is None
    assert Subspace(Q, 3, [(1, 0, 2), (0, 1, "1/2")]).coordinates(
        (3, -2, 5)) == (3, -2)
    assert Subspace(Q, 3, [(1, 0, 2)]).coordinates((1, 0, 3)) is None
    crooked = Subspace(Z4, 2, [(2, 1), (0, 2)])
    with pytest.raises(NonFreeQuotientError):
        crooked.coordinates((2, 1))


def test_coordinates_check_the_vector_length():
    space = Subspace(Q, 3, [(1, 0, 2)])
    for v in ((1, 0), (1, 0, 0, 1)):
        with pytest.raises(DimensionMismatchError,
                           match="vector length %d in dimension 3" % len(v)):
            space.coordinates(v)
    with pytest.raises(DimensionMismatchError):
        Subspace.full(F2, 3).coordinates((1, 0))
    with pytest.raises(NonFreeQuotientError):
        Subspace(Z4, 2, [(2, 1), (0, 2)]).coordinates((2,))


@pytest.mark.parametrize("spec", ("fp:2", "fp:3", "zn:4", "zn:6"))
def test_span_vectors_match_the_combination_loops(spec):
    ring = ring_from_spec(spec)
    rng = random.Random(spec)
    elems = list(ring.elements())
    bases = [(), ((ring.zero,) * 3,)]
    for k in range(1, 4):
        for width in range(1, 5):
            bases.append(tuple(tuple(rng.choice(elems) for _ in range(width))
                               for _ in range(k)))
    for basis in bases:
        got = list(span_vectors(ring, basis, 1 << 12))
        assert got == list(reference_span_vectors_ring_ops(ring, basis,
                                                           1 << 12))
        assert got == list(reference_span_vectors_mod(ring, basis, 1 << 12))
    assert list(span_vectors(ring, (), 1)) == []
    with pytest.raises(BoundExceededError,
                       match=r"state space %d\^3 exceeds bound 2"
                       % ring.size):
        span_vectors(ring, ((ring.one,) * 2,) * 3, 2)


@pytest.mark.parametrize("spec", RING_SPECS)
def test_restrict_reads_coordinates_at_the_pivots(spec):
    # On maps that send the source into the target, the product read at
    # the pivots is the per-column coordinates.
    ring = ring_from_spec(spec)
    rng = random.Random(spec)
    elems = [ring.coerce(x) for x in range(-2, 3)]
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [tuple(rng.choice(elems) for _ in range(n))
                for _ in range(rng.randint(0, n))]
        target = Subspace(ring, n, rows)
        if not target.has_unit_pivots():
            continue
        source = Subspace(ring, n, [r for r in target.basis
                                    if rng.random() < 0.6])
        M = Matrix(ring, n, n, [rng.choice(elems) for _ in range(n * n)])
        # Send R^n into the target: M followed by the basis as rows.
        k = target.num_rows
        A = Matrix._trusted(ring, k, n, [rng.choice(elems)
                                         for _ in range(k * n)])
        T = Matrix.from_rows(ring, target.basis).transpose() * A * M \
            if k else Matrix.zeros(ring, n, n)
        got = restrict(T, source, target)
        assert (got.nrows, got.ncols) == (k, source.num_rows)
        for j, b in enumerate(source.basis):
            assert got.col(j) == target.coordinates(T.apply(b))
    crooked = Subspace(Z4, 2, [(2, 1), (0, 2)])
    with pytest.raises(NonFreeQuotientError):
        restrict(Matrix.identity(Z4, 2), Subspace.full(Z4, 2), crooked)
    with pytest.raises(DimensionMismatchError):
        restrict(Matrix.identity(Q, 2), Subspace.full(Q, 3),
                 Subspace.full(Q, 3))


def test_reducer_is_the_matrix_of_reduce():
    for ring in (Q, F3, Z4, F7, Z12):
        space = Subspace(ring, 3, [(1, 0, 2), (0, 0, 1)]) \
            if ring.is_field else Subspace(ring, 3, [(1, 3, 2)])
        P = space.reducer()
        # Held canonically: no zero pair, every entry reduced.
        dense = Matrix(ring, 3, 3, P.entries)
        assert P == dense and hash(P) == hash(dense)
        for v in itertools.product(range(3), repeat=3):
            got, want = P.apply(ring.coerce_vector(v)), space.reduce(v)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]


def test_zero_divisor_products_and_sums_leave_no_pair():
    # Over Z/12, 3 * 4, 6 * 2 and 4 + 8 are 0 only once reduced: their
    # pairs go, and the results equal (and hash like) the matrices
    # written with those zeros.
    A = Matrix(Z12, 1, 3, [3, 6, 1])
    B = Matrix(Z12, 3, 3, [4, 0, 1, 0, 2, 0, 0, 0, 5])
    AB = A * B
    assert AB._nz == (((2, 8),),)
    assert AB == Matrix(Z12, 1, 3, [0, 0, 8])
    assert hash(AB) == hash(Matrix(Z12, 1, 3, [0, 0, 8]))
    assert B.transpose().apply(A.row(0)) == (0, 0, 8)
    S = Matrix(Z12, 1, 3, [4, 1, 0]) + Matrix(Z12, 1, 3, [8, 2, 0])
    assert S._nz == (((1, 3),),)
    assert S == Matrix(Z12, 1, 3, [0, 3, 0])
    assert hash(S) == hash(Matrix(Z12, 1, 3, [0, 3, 0]))
    three, four = Matrix(Z12, 1, 1, [3]), Matrix(Z12, 1, 1, [4])
    assert (three * four)._nz == ((),)
    assert three * four == Matrix.zeros(Z12, 1, 1)
    assert three.apply((4,)) == (0,)
    assert linalg._pairs({0: 12, 1: 13, 2: 24, 3: -1}, 12) \
        == ((1, 1), (3, 11))


def test_contains_subspace_checks_compatibility():
    with pytest.raises(RingMismatchError):
        Subspace.full(Q, 2).contains_subspace(Subspace(F3, 2, [(1, 0)]))
    with pytest.raises(DimensionMismatchError):
        Subspace.full(Q, 2).contains_subspace(Subspace(Q, 3, [(1, 0, 0)]))
    assert Subspace.full(F3, 2).contains_subspace(Subspace(F3, 2, [(1, 0)]))
    assert not Subspace(F3, 2, [(1, 0)]).contains_subspace(
        Subspace.full(F3, 2))


def test_zero_and_full():
    Z = Subspace.zero(Q, 3)
    F = Subspace.full(Q, 3)
    assert Z.is_zero() and not Z.is_full()
    assert F.is_full() and F.contains_subspace(Z)
    assert Z.join(F) == F
    assert subspace_intersect(Z, F) == Z


def _normal(x):
    # The normal form over Q: an int iff integral, else a Fraction.
    return type(x) is (int if x.denominator == 1 else Fraction)


def test_q_values_are_ints_iff_integral():
    # Every producer over Q hands out the normal form, on inputs whose
    # Fraction arithmetic makes integral values (1/2 + 1/2, 2 * 1/2).
    assert (Q.zero, Q.one) == (0, 1) and type(Q.zero) is type(Q.one) is int
    for x, want in ((5, 5), ("-7", -7), ("6/3", 2), ("1/2", Fraction(1, 2)),
                    (Fraction(4, 2), 2), (Fraction(1, 3), Fraction(1, 3)),
                    (" 3 ", 3), ("0/5", 0)):
        got = Q.coerce(x)
        assert got == want and _normal(got), x
    for x, want in ((Fraction(1, 2), 2), (3, Fraction(1, 3)), (1, 1),
                    (Fraction(-2, 3), Fraction(-3, 2)), (-1, -1)):
        got = Q.inv(x)
        assert got == want and _normal(got), x
    assert Q.coerce_vector([Fraction(2, 1), "1/2"]) == (2, Fraction(1, 2))

    rng = random.Random("q-normal-form")
    halves = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
              Fraction(1, 3), Fraction(2, 3)]

    def matrix(n, k):
        return Matrix(Q, n, k, [rng.choice(halves) for _ in range(n * k)])

    def ok(M):
        return all(map(_normal, M.entries))

    def space_ok(S):
        return all(_normal(x) for b in S.basis for x in b)

    made_int = 0
    for n, k, c in [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5), (5, 5, 5)]:
        for _ in range(6):
            A, B, C = matrix(n, k), matrix(k, c), matrix(n, k)
            for M in (A * B, A + C, A + A, A.transpose(), A.transpose() * C,
                      poly_at([Fraction(1, 2), 3, Fraction(-1, 2)],
                              matrix(k, k)),
                      poly_at([2, 0, 1], A.transpose() * C)):
                assert ok(M)
                made_int += sum(1 for x in M.entries
                                if x and type(x) is int)
            v = tuple(rng.choice(halves) for _ in range(k))
            assert all(map(_normal, A.apply(v)))
            assert A.apply(v) == reference_apply(A, v)
            target = Subspace(Q, n, matrix(2, n).rows())
            for S in (Subspace(Q, k, A.rows()), mat_kernel(A),
                      left_kernel(B), subspace_preimage(A, target),
                      subspace_intersect(Subspace(Q, k, B.transpose().rows()),
                                         Subspace(Q, k, C.rows()))):
                assert space_ok(S) and all(map(_normal, S.reduce(v)))
            assert all(_normal(x) for r in canonical_rows(Q, A.rows(), k)
                       for x in r)
    assert made_int > 0

    # The sparse read-offs of the composition table and the companion
    # modules of the cyclotomic factors.
    for g in (pair_groupoid(3), group_groupoid(cyclic_table(6))):
        S = regular_sheaf(g, Q)
        assert all(ok(M) for M in S.arrow_mats)
    for N in simple_modules_group(isotropy(group_groupoid(cyclic_table(12)),
                                           0), Q):
        assert all(ok(M) for M in N.mats)
        assert all(type(x) is int for M in N.mats for x in M.entries)


def test_q_twins_built_from_integral_fractions_are_equal():
    # Fraction(n, 1) == n and hashes as n, so a Matrix, a Subspace and an
    # Ideal compare and hash equal to their int-built twins, also when the
    # Fractions are stored as given (`_sparse`, `_trusted`), and a set
    # holds one of each pair (what deduplicating ideals relies on).
    rows = [(1, 0, -2), (0, 3, 0)]
    frows = [tuple(Fraction(x) for x in r) for r in rows]
    M, N = Matrix.from_rows(Q, rows), Matrix.from_rows(Q, frows)
    raw = Matrix._sparse(Q, 2, 3, [tuple((j, Fraction(x)) for j, x
                                         in enumerate(r) if x) for r in rows])
    assert M._nz == N._nz and all(type(x) is int for x in N.entries)
    for twin in (N, raw):
        assert M == twin and hash(M) == hash(twin)
    assert len({M, N, raw}) == 1
    S, T = Subspace(Q, 3, rows), Subspace(Q, 3, frows)
    raw = Subspace._trusted(Q, 3, [tuple(Fraction(x) for x in b)
                                   for b in S.basis])
    for twin in (T, raw):
        assert S == twin and hash(S) == hash(twin)
    assert len({S, T, raw}) == 1
    g = group_groupoid(cyclic_table(4))
    I = ideal_from_generators(g, Q, [AlgebraElement(g, Q, [1, -1, 0, 0])])
    J = ideal_from_generators(g, Q, [AlgebraElement(
        g, Q, [Fraction(2, 2), Fraction(-3, 3), 0, 0])])
    raw = Ideal(g, Q, Subspace._trusted(Q, 4, [tuple(Fraction(x) for x in b)
                                             for b in I.basis]), check=False)
    for twin in (J, raw):
        assert I == twin and hash(I) == hash(twin)
    assert len({I, J, raw}) == 1


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7", "zn:12"))
def test_entry_strings_match_the_dense_route(spec):
    # The output layer's strings, read off the nonzero pairs, are those
    # of every dense entry, and the JSON of a module and of a sheaf is
    # the same list as before.
    ring = ring_from_spec(spec)
    rng = random.Random("strings/" + spec)
    for density in (0, 0.3, 1):
        for n, k in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (6, 6)]:
            A = _random_matrix(rng, ring, n, k, density)
            for M in (A, A.transpose(), A * A.transpose()):
                assert M.entry_strings() == [str(x) for x in M.entries]
    for g in (pair_groupoid(3), group_groupoid(cyclic_table(4))):
        rho = regular_rep(g, ring)
        S = regular_sheaf(g, ring)
        for obj, mats in ((rho, rho.mats), (S, S.arrow_mats)):
            assert obj.to_json_dict()["matrices"] \
                == [[str(x) for x in M.entries] for M in mats]
