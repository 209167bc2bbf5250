from itertools import combinations, product

import pytest

from gpdalg import (
    AlgebraElement,
    IsotropyModule,
    Matrix,
    Subspace,
    action_groupoid,
    basis_element,
    convolve,
    mat_kernel,
    cyclic_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    ring_from_spec,
)
from gpdalg.modules import matrix_invertible


def zg(k):
    return group_groupoid(cyclic_table(k))


def swap3():
    # z2 swapping objects 0,1 and fixing 2
    return action_groupoid(cyclic_table(2), [(0, 1, 2), (1, 0, 2)])


def swap2():
    return action_groupoid(cyclic_table(2), [(0, 1), (1, 0)])


def cycle3():
    return action_groupoid(cyclic_table(3),
                           [(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def double_swap():
    # z2 on four points as two 2-cycles
    return action_groupoid(cyclic_table(2), [(0, 1, 2, 3), (1, 0, 3, 2)])


def klein_table():
    return [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def named_pool():
    """Shared corpus: small groupoids exercising every structural case."""
    return [
        ("pair:1", pair_groupoid(1)),
        ("pair:2", pair_groupoid(2)),
        ("pair:3", pair_groupoid(3)),
        ("z:1", zg(1)),
        ("z:2", zg(2)),
        ("z:3", zg(3)),
        ("z:4", zg(4)),
        ("swap3", swap3()),
        ("swap2", swap2()),
        ("cycle3", cycle3()),
        ("double_swap", double_swap()),
        ("z2+pt", disjoint_union(zg(2), pair_groupoid(1))),
        ("pair2+z3", disjoint_union(pair_groupoid(2), zg(3))),
    ]


def all_subspaces(ring, dim):
    """Brute-force reference: every subspace of F_q^dim, one RREF each.

    Lists the reduced echelon bases directly, pivot set by pivot set, with
    every choice of free entries; no bound, so keep dim small.
    """
    elems = list(ring.elements())
    for k in range(dim + 1):
        for pivs in combinations(range(dim), k):
            free = [(i, j) for i in range(k) for j in range(dim)
                    if j > pivs[i] and j not in pivs]
            for vals in product(elems, repeat=len(free)):
                rows = [[ring.zero] * dim for _ in range(k)]
                for i in range(k):
                    rows[i][pivs[i]] = ring.one
                for (i, j), v in zip(free, vals):
                    rows[i][j] = v
                yield Subspace._trusted(ring, dim,
                                        [tuple(r) for r in rows])


def brute_span(ring, gens, dim):
    """All ring-combinations of the generators, by closure (finite rings)."""
    seen = {(ring.zero,) * dim}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in gens:
            for c in ring.elements():
                w = tuple(ring.add(v[i], ring.mul(c, g[i]))
                          for i in range(dim))
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen


def reference_closed_two_sided(g, ring, space):
    """Slow reference for ``ideals._closed_two_sided``: convolves every
    basis vector with every arrow's indicator, on both sides."""
    for v in space.basis:
        f = AlgebraElement(g, ring, v)
        for a in range(g.n_arrows):
            e = basis_element(g, ring, a)
            if not space.contains(convolve(e, f).coeffs):
                return ("left", a, v)
            if not space.contains(convolve(f, e).coeffs):
                return ("right", a, v)
    return None


def reference_ideal_space(g, ring, generators):
    """Slow reference for ``ideal_from_generators``: joins in every
    convolution product with an arrow until the span stops growing."""
    space = Subspace(ring, g.n_arrows, [tuple(f) for f in generators])
    while reference_closed_two_sided(g, ring, space) is not None:
        new_rows = list(space.basis)
        for v in space.basis:
            f = AlgebraElement(g, ring, v)
            for a in range(g.n_arrows):
                e = basis_element(g, ring, a)
                new_rows.append(convolve(e, f).coeffs)
                new_rows.append(convolve(f, e).coeffs)
        bigger = Subspace(ring, g.n_arrows, new_rows)
        if bigger == space:
            break
        space = bigger
    return space


def reference_matmul(A, B):
    """Slow reference for ``Matrix.__mul__``: the dense triple loop, every
    entry a full dot product of a row with a column, zeros included."""
    R = A.ring
    out = []
    cols = [B.col(j) for j in range(B.ncols)]
    for i in range(A.nrows):
        row = A.row(i)
        for c in cols:
            acc = R.zero
            for a, b in zip(row, c):
                acc = R.add(acc, R.mul(a, b))
            out.append(acc)
    return Matrix(R, A.nrows, B.ncols, out)


def reference_rep_validate(rho):
    """Slow reference for ``modules.rep_validate``: multiplies all m^2
    pairs of arrow matrices, the non-composable ones checked against 0."""
    errs = []
    g = rho.groupoid
    MR = rho.matrix_ring
    zero = Matrix.zeros(MR, rho.dim, rho.dim)
    for a in range(g.n_arrows):
        for b in range(g.n_arrows):
            prod = rho.mats[a] * rho.mats[b]
            if g.composable(a, b):
                if prod != rho.mats[g.comp[(a, b)]]:
                    errs.append("rho(e_%d) rho(e_%d) != rho(e_%d%d)"
                                % (a, b, a, b))
            elif prod != zero:
                errs.append("rho(e_%d) rho(e_%d) != 0 on non-composable pair"
                            % (a, b))
    total = Matrix.zeros(MR, rho.dim, rho.dim)
    for e in g.unit_of:
        total = total + rho.mats[e]
    if total != Matrix.identity(MR, rho.dim):
        errs.append("unit indicators do not sum to the identity")
    return errs


def reference_module_validate(N):
    """Slow reference for ``modules.rep_validate`` on an isotropy module:
    the group-module axioms checked one by one."""
    errs = []
    G = N.group
    if not all(matrix_invertible(M) for M in N.mats):
        errs.append("some group element acts non-invertibly")
    ident = Matrix.identity(N.matrix_ring, N.dim)
    if N.mats[G.identity] != ident:
        errs.append("identity element does not act as identity")
    for i in range(G.order):
        for j in range(G.order):
            if N.mats[i] * N.mats[j] != N.mats[G.table[i][j]]:
                errs.append("action not multiplicative at (%d,%d)" % (i, j))
    return errs


def reference_regular_module(G, ring):
    """Slow reference for ``modules.regular_module``: the matrices read
    off the group table."""
    k = G.order
    mats = []
    for i in range(k):
        ent = [ring.zero] * (k * k)
        for j in range(k):
            ent[G.table[i][j] * k + j] = ring.one
        mats.append(Matrix(ring, k, k, ent))
    return IsotropyModule(G, ring, k, mats)


def reference_closure(maps, space):
    """Slow reference for ``linalg.closure``: passes over the whole basis,
    every map applied to every basis vector, until a pass adds nothing."""
    R, dim = space.ring, space.ambient_dim
    while True:
        new_rows = []
        for v in space.basis:
            for M in maps:
                w = M.apply(v)
                if not space.contains(w):
                    new_rows.append(w)
        if not new_rows:
            return space
        space = space.join(Subspace(R, dim, new_rows))


def reference_hom_space(A, B):
    """Slow reference for ``modules.hom_space``: one commutation condition
    per arrow (or group element), not per generator."""
    MR = A.matrix_ring
    d1, d2 = A.dim, B.dim
    nunk = d2 * d1
    rows = []
    for M1, M2 in zip(A.mats, B.mats):
        for i in range(d2):
            for j in range(d1):
                row = [MR.zero] * nunk
                for k in range(d1):
                    row[i * d1 + k] = MR.add(row[i * d1 + k], M1.at(k, j))
                for k in range(d2):
                    row[k * d1 + j] = MR.sub(row[k * d1 + j], M2.at(i, k))
                rows.append(tuple(row))
    if not rows:
        return Subspace.full(MR, nunk)
    return mat_kernel(Matrix.from_rows(MR, rows))


RING_SPECS = ("q", "fp:2", "fp:3", "zn:4")


@pytest.fixture(params=RING_SPECS)
def any_ring(request):
    return ring_from_spec(request.param)


@pytest.fixture
def qq():
    return ring_from_spec("q")


@pytest.fixture
def f2():
    return ring_from_spec("fp:2")


@pytest.fixture
def f3():
    return ring_from_spec("fp:3")


@pytest.fixture
def z4ring():
    return ring_from_spec("zn:4")
