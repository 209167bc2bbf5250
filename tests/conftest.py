from itertools import combinations, product

import pytest

from gpdalg import (
    AlgebraElement,
    Ideal,
    IsotropyModule,
    Matrix,
    Rep,
    Subspace,
    action_groupoid,
    basis_element,
    canonical_rows,
    convolve,
    mat_kernel,
    cyclic_table,
    disjoint_union,
    group_groupoid,
    isotropy,
    pair_groupoid,
    ring_from_spec,
    subspace_preimage,
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


def reference_mat_kernel(mat):
    """Slow reference for ``linalg.mat_kernel``: the canonical form of the
    transpose augmented with an identity block."""
    R = mat.ring
    m, k = mat.nrows, mat.ncols
    aug = []
    for i in range(k):
        row = list(mat.col(i))
        row.extend(R.one if t == i else R.zero for t in range(k))
        aug.append(row)
    can = canonical_rows(R, aug, m + k)
    kern = [row[m:] for row in can
            if all(x == R.zero for x in row[:m])]
    return Subspace(R, k, kern)


def reference_left_kernel(mat):
    """Slow reference for ``linalg.left_kernel``: the kernel of the
    transpose."""
    return reference_mat_kernel(mat.transpose())


def reference_subspace_intersect(a, b):
    """Slow reference for ``linalg.subspace_intersect``: the left kernel of
    the stacked bases, read on the first block."""
    R = a.ring
    if a.is_zero() or b.is_zero():
        return Subspace.zero(R, a.ambient_dim)
    stacked = Matrix.from_rows(R, list(a.basis) + list(b.basis))
    kern = reference_left_kernel(stacked)
    na = len(a.basis)
    gens = []
    for coeffs in kern.basis:
        v = [R.zero] * a.ambient_dim
        for c, row in zip(coeffs[:na], a.basis):
            for j in range(a.ambient_dim):
                v[j] = R.add(v[j], R.mul(c, row[j]))
        gens.append(tuple(v))
    return Subspace(R, a.ambient_dim, gens)


def reference_subspace_preimage(mat, target):
    """Slow reference for ``linalg.subspace_preimage``: the kernel of
    [mat | -target^T], read on the first block."""
    R = mat.ring
    if target.is_zero():
        return reference_mat_kernel(mat)
    k = mat.ncols
    s = len(target.basis)
    rows = []
    for i in range(mat.nrows):
        row = list(mat.row(i))
        row.extend(R.neg(target.basis[t][i]) for t in range(s))
        rows.append(row)
    kern = reference_mat_kernel(Matrix.from_rows(R, rows))
    gens = [c[:k] for c in kern.basis]
    return Subspace(R, k, gens)


def reference_stalk_annihilator_space(g, ring, I, u):
    """Slow reference for ``suite.stalk_annihilator_space``: a group
    algebra element kills the stalk iff its products with every arrow
    into u land in the ideal, one block of m rows per arrow."""
    G = isotropy(g, u)
    into = g.arrows_into(u)
    m = g.n_arrows
    rows = []
    for a in into:
        block = [[ring.zero] * G.order for _ in range(m)]
        for k, loop in enumerate(G.arrow_ids):
            block[g.comp[(loop, a)]][k] = ring.one
        rows.extend(tuple(r) for r in block)
    L = Matrix.from_rows(ring, rows)
    target_rows = []
    for idx in range(len(into)):
        for b in I.space.basis:
            row = [ring.zero] * (len(into) * m)
            row[idx * m:(idx + 1) * m] = list(b)
            target_rows.append(tuple(row))
    target = Subspace(ring, len(into) * m, target_rows)
    return subspace_preimage(L, target)


def _reference_conjugate_index(g, G, T, a):
    v, w = g.src[a], g.tgt[a]
    loop = g.comp[(g.inv[T[w]], g.comp[(a, T[v])])]
    return G.index_of[loop]


def reference_induce(g, ring, u, N, T):
    """Slow reference for ``induction.induce``: assembles the blocks of
    the induced module by hand, for the transversal T {v: arrow u -> v}."""
    G = isotropy(g, u)
    MR = N.matrix_ring
    obj = tuple(sorted(T))
    offset = {v: i * N.dim for i, v in enumerate(obj)}
    dim = len(obj) * N.dim
    in_orbit = set(obj)
    mats = []
    for a in range(g.n_arrows):
        v, w = g.src[a], g.tgt[a]
        ent = [MR.zero] * (dim * dim)
        if v in in_orbit and w in in_orbit:
            block = N.mats[_reference_conjugate_index(g, G, T, a)]
            ro, co = offset[w], offset[v]
            for i in range(N.dim):
                base = (ro + i) * dim + co
                for j in range(N.dim):
                    ent[base + j] = block.at(i, j)
        mats.append(Matrix(MR, dim, dim, ent))
    return Rep(g, ring, dim, mats, matrix_ring=MR)


def reference_induced_annihilator(g, ring, u, ann_space, T):
    """Slow reference for ``induction.induced_annihilator_from_space``:
    the preimage of Ann(N) on every block under the map L sending f to
    its group algebra element on each pair (v, w), for the transversal T."""
    G = isotropy(g, u)
    obj = tuple(sorted(T))
    m = g.n_arrows
    k = G.order
    pairs = [(v, w) for v in obj for w in obj]
    rows = []
    for v, w in pairs:
        block = [[ring.zero] * m for _ in range(k)]
        for a in g.arrows_from_to(v, w):
            block[_reference_conjugate_index(g, G, T, a)][a] = ring.one
        rows.extend(block)
    L = Matrix.from_rows(ring, rows) if rows else Matrix.zeros(ring, 0, m)
    target_rows = []
    P = len(pairs)
    for p in range(P):
        for b in ann_space.basis:
            row = [ring.zero] * (P * k)
            row[p * k:(p + 1) * k] = list(b)
            target_rows.append(tuple(row))
    target = Subspace(ring, P * k, target_rows)
    space = subspace_preimage(L, target)
    return Ideal(g, ring, space, check=True)


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
