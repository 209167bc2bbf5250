import random
from itertools import combinations, product
from math import gcd

import pytest

from gpdalg import (
    DEFAULT_BOUND,
    AlgebraElement,
    BoundExceededError,
    Ideal,
    IsotropyModule,
    Matrix,
    Rep,
    Subspace,
    UnsupportedRingError,
    action_groupoid,
    all_submodules,
    annihilator,
    basis_element,
    canonical_rows,
    convolve,
    mat_kernel,
    cyclic_table,
    disjoint_union,
    group_groupoid,
    hom_space,
    induced_annihilator_direct,
    isotropy,
    orbits,
    pair_groupoid,
    regular_rep,
    rep_quotient,
    rep_submodule,
    ring_from_spec,
    sheaf_of,
    simple_modules_group,
    stalk_isotropy_module,
    subspace_preimage,
)
from gpdalg.algebra import left_mult_matrix, right_mult_matrix
from gpdalg.cli import parse_generator_spec
from gpdalg.errors import ConstructionError, NonFreeQuotientError
from gpdalg.groupoid import generating_arrows, orbit_blocks, relabel_arrows
from gpdalg.ideals import _arrow_actions
from gpdalg.linalg import (_egcd, _first_nonzero, _unit_mult, closure,
                           first_escape, invariant_lattice, nonzero_vectors)
from gpdalg.modules import (_cyclotomic, is_invariant, matrix_invertible,
                            regular_module, rep_validate)
from gpdalg.sheaves import SheafData, _stalk_basis
from gpdalg.linalg import poly_at


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


LAYOUT_SPECS = ("action:z4:1,0,3,2", "action:z6:1,2,0,4,5,3", "action:z8:1,0")


def layout_pool():
    """Each of LAYOUT_SPECS and one arrow-relabelled copy: orbit blocks
    whose arrows are out of ascending order, which ``named_pool`` lacks
    (2 and 6 at the orbit representatives of the first two specs).  Their
    isotropy groups have order 2, where every reordering of a block is a
    translation, which fixes every ideal; on the relabelled action:z8:1,0
    (isotropy Z/4) it is not, so an ideal laid in the wrong order shows."""
    pool = []
    for spec in LAYOUT_SPECS:
        g = parse_generator_spec(spec)
        perm = list(range(g.n_arrows))
        random.Random(spec).shuffle(perm)
        pool += [(spec, g), (spec + "/relabelled", relabel_arrows(g, perm))]
    return pool


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
                w = tuple(ring.coerce(v[i] + c * g[i])
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
                acc = R.coerce(acc + a * b)
            out.append(acc)
    return Matrix(R, A.nrows, B.ncols, out)


class Dense:
    """A matrix as the old dense ``Matrix`` held it: `entries` row-major,
    zeros included.  The ``reference_*`` helpers below are that class's
    bodies, zeros found by scanning the entries."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring, nrows, ncols, entries):
        self.ring, self.nrows, self.ncols = ring, nrows, ncols
        self.entries = tuple(ring.coerce(x) for x in entries)

    def row(self, i):
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def col(self, j):
        return tuple(self.entries[i * self.ncols + j]
                     for i in range(self.nrows))

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.nrows)]


def reference_nonzero_rows(D):
    """Per row, the (column, entry) pairs of its nonzero entries, found by
    testing every entry."""
    return [[(j, x) for j, x in enumerate(D.row(i)) if x]
            for i in range(D.nrows)]


def reference_rowwise_matmul(A, B):
    """The old ``Matrix.__mul__``: row i, then k, then column j over the
    nonzero entries of both factors, into a dense accumulator row."""
    R, c = A.ring, B.ncols
    sparse_rows = reference_nonzero_rows(B)
    out = []
    for row in reference_nonzero_rows(A):
        acc = [R.zero] * c
        for k, a in row:
            for j, b in sparse_rows[k]:
                acc[j] = R.coerce(acc[j] + a * b)
        out.extend(acc)
    return Dense(R, A.nrows, c, out)


def reference_matadd(A, B):
    """The old ``Matrix.__add__``: A's entries plus B's nonzero entries."""
    R, c = A.ring, A.ncols
    out = list(A.entries)
    for i, row in enumerate(reference_nonzero_rows(B)):
        for j, x in row:
            out[i * c + j] = R.coerce(out[i * c + j] + x)
    return Dense(R, A.nrows, c, out)


def reference_transpose(D):
    """The old ``Matrix.transpose``: column j is the stride-c slice at j."""
    c = D.ncols
    return Dense(D.ring, c, D.nrows,
                 [x for j in range(c) for x in D.entries[j::c]])


def reference_left_mult_matrix(g, ring, a):
    """Matrix of f -> e_a * f on the arrow basis."""
    m = g.n_arrows
    ent = [ring.zero] * (m * m)
    for (x, b), c in g.comp.items():
        if x == a:
            ent[c * m + b] = ring.one
    return Matrix(ring, m, m, ent)


def reference_right_mult_matrix(g, ring, a):
    """Matrix of f -> f * e_a on the arrow basis."""
    m = g.n_arrows
    ent = [ring.zero] * (m * m)
    for (b, x), c in g.comp.items():
        if x == a:
            ent[c * m + b] = ring.one
    return Matrix(ring, m, m, ent)


def reference_rref(ring, work, width):
    """Slow reference for ``linalg.canonical_rows`` over a field: batch
    Gauss-Jordan elimination, column by column over all rows.

    `work` is a list of rows of coerced ring elements, reduced in place."""
    pivots = []
    r = 0
    for col in range(width):
        src = None
        for i in range(r, len(work)):
            if work[i][col] != ring.zero:
                src = i
                break
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        inv = ring.inv(work[r][col])
        work[r] = [ring.coerce(inv * x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != ring.zero:
                c = work[i][col]
                work[i] = [ring.coerce(x - c * y)
                           for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in work[:r])


def reference_howell(n, rows, width):
    """Slow reference for ``linalg.canonical_rows`` over Z/n: the batch
    Howell form of the span of `rows` inside (Z/n)^width (insert, then
    saturate with annihilator rows, normalise the pivots and reduce the
    entries above them)."""
    pivots: dict[int, list] = {}

    def insert(row):
        # Returns True when the pivot table changed.
        changed = False
        row = [x % n for x in row]
        while True:
            j = _first_nonzero(row)
            if j is None:
                return changed
            if j not in pivots:
                pivots[j] = row
                return True
            p = pivots[j]
            a, b = p[j], row[j]
            # Keep the pivot when a divides b: _egcd(a, a) would hand its
            # slot to the incoming row, and saturation would loop forever.
            g, s, t = (a, 1, 0) if b % a == 0 else _egcd(a, b)
            new = [(s * x + t * y) % n for x, y in zip(p, row)]
            rem = [((-(b // g)) * x + (a // g) * y) % n for x, y in zip(p, row)]
            # [new; rem] is a unimodular image of [p; row]: span preserved.
            if new != p:
                pivots[j] = new
                changed = True
            row = rem

    for r in rows:
        insert(list(r))

    # Saturate: annihilator multiples of every pivot row must already lie
    # in the span of the later rows (the Howell property).
    while True:
        changed = False
        for j in sorted(pivots):
            p = pivots[j]
            ann = n // gcd(p[j], n)
            if ann % n == 0:
                continue
            if insert([(ann * x) % n for x in p]):
                changed = True
        if not changed:
            break

    # Normalize pivots to divisors of n, then reduce entries above pivots.
    for j in pivots:
        u = _unit_mult(pivots[j][j], n)
        if u != 1:
            pivots[j] = [(u * x) % n for x in pivots[j]]
    cols = sorted(pivots)
    for j in cols:
        d = pivots[j][j]
        for j2 in cols:
            if j2 >= j:
                break
            q = pivots[j2]
            c = q[j] // d
            if c:
                pivots[j2] = [(x - c * y) % n for x, y in zip(q, pivots[j])]
    return tuple(tuple(pivots[j]) for j in cols)


def reference_reduce(ring, rows, v):
    """Slow reference for ``Subspace.reduce``, the routine it replaced
    verbatim but for the name: the list v reduced in place by canonical
    (pivot, row) pairs in pivot order, zero iff v lies in their span.
    Each pivot entry of v is read once (over a field, RREF) or reduced
    modulo the pivot (over Z/n, exact on members by the Howell property);
    zero pivot entries of v and zero row entries are skipped."""
    field = ring.is_field
    add = lambda a, b: ring.coerce(a + b)
    mul = lambda a, b: ring.coerce(a * b)
    neg = lambda a: ring.coerce(-a)
    width = len(v)
    for p, b in rows:
        c = v[p]
        if not c:
            continue
        if not field:
            c //= b[p]
            if not c:
                continue
        c = neg(c)
        for j in range(p, width):
            x = b[j]
            if x:
                v[j] = add(v[j], mul(c, x))
    return v


def reference_insert(ring, table, v):
    """Slow reference for the finite branch of ``linalg._insert``: the
    two kernels it replaced, verbatim but for the names.  Over F_p the
    table is kept in RREF by ring operations (v reduced by
    `reference_reduce`, normalised at its leading column, that column
    cleared from the other rows); over Z/n it keeps the Howell property,
    each worklist step building the whole next row.  True when the span
    grew."""
    if ring.kind == "modular":
        n = ring.modulus
        grew = False
        work = [v]
        while work:
            row = work.pop()
            j = _first_nonzero(row)
            if j is None:
                continue
            b, p = row[j], table.get(j)
            if p is not None and b % p[j] == 0:
                c = b // p[j]
                work.append([(x - c * y) % n for x, y in zip(row, p)])
                continue
            if p is None:
                u = _unit_mult(b, n)
                p = [(u * x) % n for x in row]
            else:
                a = p[j]
                g, s, t = _egcd(a, b)
                work.append([((a // g) * y - (b // g) * x) % n
                             for x, y in zip(p, row)])
                p = [(s * x + t * y) % n for x, y in zip(p, row)]
            table[j] = p
            grew = True
            if p[j] != 1:
                ann = n // p[j]
                work.append([(ann * x) % n for x in p])
        return grew
    reference_reduce(ring, table.items(), v)
    lead = _first_nonzero(v)
    if lead is None:
        return False
    add = lambda a, b: ring.coerce(a + b)
    mul = lambda a, b: ring.coerce(a * b)
    neg = lambda a: ring.coerce(-a)
    inv = ring.inv(v[lead])
    v = [mul(inv, x) if x else x for x in v]
    pairs = [(j, v[j]) for j in range(lead, len(v)) if v[j]]
    for row in table.values():
        c = row[lead]
        if c:
            c = neg(c)
            for j, x in pairs:
                row[j] = add(row[j], mul(c, x))
    table[lead] = v
    return True


def reference_table_rows(ring, table):
    """Slow reference for ``linalg._table_rows`` on a `reference_insert`
    table: the RREF as it stands over F_p; over Z/n the Howell form once
    each entry above a pivot d is reduced into [0, d), whole rows at a
    time."""
    cols = sorted(table)
    if ring.kind == "modular":
        n = ring.modulus
        for i, j in enumerate(cols):
            row, d = table[j], table[j][j]
            for j2 in cols[:i]:
                c = table[j2][j] // d
                if c:
                    table[j2] = [(x - c * y) % n
                                 for x, y in zip(table[j2], row)]
    return tuple(tuple(table[p]) for p in cols)


def reference_apply(M, vec):
    """Slow reference for ``Matrix.apply``: every entry of each row,
    zeros included."""
    R = M.ring
    out = []
    for i in range(M.nrows):
        acc = R.zero
        for j in range(M.ncols):
            acc = R.coerce(acc + M.at(i, j) * vec[j])
        out.append(acc)
    return tuple(out)


def reference_convolve(f, h):
    """Slow reference for ``convolve``: the sum of f(a) h(b) over every
    composable pair (a, b) of ``g.comp``, zeros included, each partial
    sum coerced."""
    g, R = f.groupoid, f.ring
    out = [R.zero] * g.n_arrows
    for (a, b), c in g.comp.items():
        out[c] = R.coerce(out[c] + f.coeffs[a] * h.coeffs[b])
    return out


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


def reference_sheaf_validate(S):
    """Slow reference for ``sheaves.sheaf_validate``: units act as
    identities, every composable pair is multiplied and every arrow is
    checked to act invertibly."""
    errs = []
    g = S.groupoid
    for u in range(g.n_objects):
        e = g.unit_of[u]
        if S.arrow_mats[e] != Matrix.identity(S.matrix_ring,
                                              S.stalk_dims[u]):
            errs.append("unit at object %d does not act as identity" % u)
    for (a, b), c in g.comp.items():
        if S.arrow_mats[a] * S.arrow_mats[b] != S.arrow_mats[c]:
            errs.append("arrow matrices break composition at (%d,%d)" % (a, b))
    for a in range(g.n_arrows):
        if not matrix_invertible(S.arrow_mats[a]):
            errs.append("arrow %d acts non-invertibly" % a)
    return errs


def reference_orbits(g):
    """Slow reference for ``groupoid.orbits``: a union-find over every
    arrow, classes sorted and indexed by their smallest member, as
    (orbit_of, classes)."""
    parent = list(range(g.n_objects))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(g.n_arrows):
        rx, ry = find(g.src[a]), find(g.tgt[a])
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    groups = {}
    for u in range(g.n_objects):
        groups.setdefault(find(u), []).append(u)
    classes = tuple(tuple(sorted(groups[r])) for r in sorted(groups))
    orbit_of = [0] * g.n_objects
    for i, cls in enumerate(classes):
        for u in cls:
            orbit_of[u] = i
    return tuple(orbit_of), classes


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


def _reference_nonzero_vectors(ring, dim, bound):
    """Every nonzero vector of R^dim, for a finite ring R (the enumerator
    before it skipped the multiples of a line's first vector)."""
    if ring.size ** dim > bound:
        raise BoundExceededError("state space %d^%d exceeds bound %d"
                                 % (ring.size, dim, bound))
    zero = (ring.zero,) * dim
    return (v for v in product(list(ring.elements()), repeat=dim)
            if v != zero)


def _reference_one_per_line(ring, vectors):
    """The vectors whose first nonzero entry is 1, over a field; every
    vector over Z/n."""
    if not ring.is_field:
        return vectors
    zero, one = ring.zero, ring.one
    return (v for v in vectors if next(x for x in v if x != zero) == one)


def reference_invariant_lattice(maps, ring, dim, bound):
    """Slow reference for ``linalg.invariant_lattice``: the cyclic
    closures of one vector per line, closed under joins by a queue that
    joins every pair."""
    found = {Subspace.zero(ring, dim)}
    found.update(closure(maps, Subspace(ring, dim, [v]))
                 for v in _reference_one_per_line(
                     ring, _reference_nonzero_vectors(ring, dim, bound)))
    queue = list(found)
    while queue:
        S = queue.pop()
        for T in list(found):
            U = S.join(T)
            if U not in found:
                found.add(U)
                queue.append(U)
    return sorted(found, key=lambda s: (s.num_rows, s.basis))


def reference_enumerate_all_ideals(g, ring, bound=DEFAULT_BOUND):
    """Slow reference for ``ideals.enumerate_all_ideals``: the lattice of
    the whole algebra, every subspace of R^m (m = ``n_arrows``) invariant
    under left and right multiplication by the generating arrows, over
    any finite ring; it charges q^m against `bound`."""
    return [Ideal(g, ring, space, check=False)
            for space in invariant_lattice(_arrow_actions(g, ring), ring,
                                           g.n_arrows, bound)]


def reference_arrow_actions(g, ring):
    """Slow reference for ``ideals._arrow_actions``: left and right
    multiplication by each generating arrow, interleaved, with the
    identity and repeated matrices kept."""
    return tuple(M for a in generating_arrows(g)
                 for M in (left_mult_matrix(g, ring, a),
                           right_mult_matrix(g, ring, a)))


def reference_arrow_witness(g, actions, space):
    """Slow reference for ``ideals._closed_two_sided``: the first escape
    under `actions`, which are ``reference_arrow_actions(g, ring)``, its
    index decoded into the side and the generating arrow."""
    escape = first_escape(actions, space)
    if escape is None:
        return None
    i, v = escape
    return ("right" if i % 2 else "left", generating_arrows(g)[i // 2], v)


def reference_orbit_rows(ring, m, blocks, rows):
    """Each row of R[G_u] laid in R^m on every block of the orbit of u,
    `blocks` being its ``orbit_blocks``, 0 off the orbit."""
    laid = []
    for block in blocks:
        for b in rows:
            f = [ring.zero] * m
            for a, x in zip(block, b):
                f[a] = x
            laid.append(f)
    return laid


def reference_orbit_ideals(g, ring, bound=DEFAULT_BOUND):
    """Slow reference for ``ideals.enumerate_all_ideals`` and its
    ``product_ideal`` layout: every ideal of each R[G_u] laid on its
    orbit's blocks (``reference_orbit_rows``), each choice of one per
    orbit eliminated again in n_arrows dimensions."""
    m = g.n_arrows
    per_orbit = []
    for u in orbits(g).representatives:
        G = isotropy(g, u)
        lattice = invariant_lattice(reference_arrow_actions(G.groupoid, ring),
                                    ring, G.order, bound)
        per_orbit.append([reference_orbit_rows(ring, m, orbit_blocks(g, u),
                                               J.basis) for J in lattice])
    spaces = [Subspace(ring, m, [f for rows in pick for f in rows])
              for pick in product(*per_orbit)]
    return [Ideal(g, ring, space, check=False)
            for space in sorted(spaces, key=lambda s: (s.num_rows, s.basis))]


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
                    row[i * d1 + k] = MR.coerce(row[i * d1 + k] + M1.at(k, j))
                for k in range(d2):
                    row[k * d1 + j] = MR.coerce(row[k * d1 + j] - M2.at(i, k))
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
                v[j] = R.coerce(v[j] + c * row[j])
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
        row.extend(R.coerce(-target.basis[t][i]) for t in range(s))
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
    return G.arrow_ids.index(loop)


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


def block_sum(*modules):
    """Block-diagonal sum of modules over one groupoid, as a Rep."""
    first = modules[0]
    R = first.matrix_ring
    d = sum(N.dim for N in modules)
    mats = []
    for k in range(first.groupoid.n_arrows):
        ent = [R.zero] * (d * d)
        off = 0
        for N in modules:
            for i in range(N.dim):
                for j in range(N.dim):
                    ent[(off + i) * d + off + j] = N.mats[k].at(i, j)
            off += N.dim
        mats.append(Matrix(R, d, d, ent))
    return Rep(first.groupoid, first.ring, d, mats, matrix_ring=R)


def reference_maximal_submodules(module, bound=DEFAULT_BOUND):
    """Slow reference for ``modules.maximal_submodules``: the maximal
    members of the whole submodule lattice (the body before the MeatAxe,
    verbatim)."""
    full = Subspace.full(module.matrix_ring, module.dim)
    proper = [S for S in all_submodules(module, bound) if S != full]
    maximal = [S for S in proper
               if not any(T != S and T.contains_subspace(S) for T in proper)]
    maximal.sort(key=lambda s: (-s.element_count(), s.basis))
    return maximal


def reference_primitive_ideal_oracle(g, ring, bound=DEFAULT_BOUND):
    """Slow reference for ``suite.primitive_ideal_oracle``: annihilators
    of the simple quotients of the regular module, read off its maximal
    submodules in the submodule lattice."""
    reg = regular_rep(g, ring)
    return sorted({annihilator(rep_quotient(reg, N))
                   for N in reference_maximal_submodules(reg, bound)},
                  key=lambda J: (len(J.space.basis), J.space.basis))


def reference_simple_modules_group(G, ring, bound=DEFAULT_BOUND):
    """Slow reference for ``modules.simple_modules_group`` over a prime
    field: a composition series of the regular module, each step the
    first lattice-maximal submodule, the tops kept up to isomorphism."""
    sims = []
    stack = [regular_module(G, ring)]
    while stack:
        M = stack.pop()
        if M.dim == 0:
            continue
        N = reference_maximal_submodules(M, bound)[0]
        top = rep_quotient(M, N)
        if not any(S.dim == top.dim and hom_space(top, S).basis
                   for S in sims):
            sims.append(top)
        if not N.is_zero():
            stack.append(rep_submodule(M, N))
    out = [IsotropyModule(G, ring, S.dim, S.mats) for S in sims]
    out.sort(key=lambda N: N.sort_key())
    return out


def reference_enumerate_primitive_ideals(g, ring, bound=DEFAULT_BOUND):
    """Slow reference for ``suite.enumerate_primitive_ideals``: the
    annihilators induced from every simple that ``simple_modules_group``
    lists at each orbit representative, over F_p and Z/p^k through its
    composition-series walk (the route before the classes were read off
    the irreducible factors of x^n - 1)."""
    return sorted({induced_annihilator_direct(g, ring, u, N)
                   for u in orbits(g).representatives
                   for N in simple_modules_group(isotropy(g, u), ring,
                                                 bound=bound)},
                  key=lambda J: (len(J.space.basis), J.space.basis))


def reference_is_simple(module, bound=DEFAULT_BOUND):
    """Simplicity read off the whole module: over finite rings its own
    lattice-maximal submodule is zero, the search charged on all of its
    q^dim states; over Q its stalk at the smallest support object passes
    the cyclotomic test, the support lying in one orbit."""
    if module.dim == 0:
        return False
    if module.matrix_ring.size is not None:
        return reference_maximal_submodules(module, bound)[0].is_zero()
    S = sheaf_of(module)
    supp = S.support()
    orbit_of = orbits(module.groupoid).orbit_of
    if any(orbit_of[u] != orbit_of[supp[0]] for u in supp):
        return False
    N = stalk_isotropy_module(S, supp[0])
    gen = N.group.generator_if_cyclic()
    if gen is None:
        raise UnsupportedRingError("decided over Q for cyclic isotropy "
                                   "groups only")
    n = N.group.order
    phis = [_cyclotomic(k) for k in range(1, n + 1) if n % k == 0]
    return any(len(phi) - 1 == N.dim and poly_at(phi, N.mats[gen]).is_zero()
               for phi in phis)


def reference_is_scalar(M):
    """Slow reference for ``meataxe._is_scalar``: every dense entry."""
    c = M.entries[0]
    return all(x == (c if i == j else 0) for i, row in enumerate(M.rows())
               for j, x in enumerate(row))


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


def reference_rep_submodule(rho, space):
    """Slow reference for ``modules.rep_submodule``: the coordinates of
    each basis vector's image, one ``Subspace.coordinates`` per column,
    checked on every arrow (the body before ``linalg.restrict``,
    verbatim)."""
    MR = rho.matrix_ring
    k = len(space.basis)
    mats = []
    for M in rho.mats:
        cols = []
        for b in space.basis:
            coords = space.coordinates(M.apply(b))
            if coords is None:
                raise ConstructionError("subspace is not invariant")
            cols.append(coords)
        mats.append(Matrix(MR, k, k,
                           [cols[j][i] for i in range(k) for j in range(k)]))
    return Rep(rho.groupoid, rho.ring, k, mats, matrix_ring=MR)


def reference_rep_quotient(rho, space):
    """Slow reference for ``modules.rep_quotient``: each free unit
    vector's image reduced modulo the subspace, one ``reduce`` per column
    (the body before ``linalg.restrict``, verbatim)."""
    MR = rho.matrix_ring
    if any(b[p] != MR.one for b, p in zip(space.basis, space.pivots)):
        raise NonFreeQuotientError("quotient by a non-unit-pivot subspace")
    if not is_invariant(rho, space):
        raise ConstructionError("subspace is not invariant")
    piv = set(space.pivots)
    free = [j for j in range(rho.dim) if j not in piv]
    k = len(free)

    def proj(v):
        red = space.reduce(v)
        return tuple(red[j] for j in free)

    mats = []
    for M in rho.mats:
        cols = []
        for j in free:
            e = [MR.zero] * rho.dim
            e[j] = MR.one
            cols.append(proj(M.apply(e)))
        mats.append(Matrix(MR, k, k,
                           [cols[j][i] for i in range(k) for j in range(k)]))
    return Rep(rho.groupoid, rho.ring, k, mats, matrix_ring=MR)


def reference_sheaf_of(rho):
    """Slow reference for ``sheaves.sheaf_of``: the stalk coordinates of
    each arrow's image of the source stalk's basis, one
    ``Subspace.coordinates`` per column (the arrow loop before
    ``linalg.restrict``, verbatim)."""
    errs = rep_validate(rho)
    if errs:
        raise ConstructionError("not a module: %s" % errs[0])
    g = rho.groupoid
    MR = rho.matrix_ring
    bases = [_stalk_basis(rho, u) for u in range(g.n_objects)]
    dims = [len(b.basis) for b in bases]
    mats = []
    for a in range(g.n_arrows):
        v, w = g.src[a], g.tgt[a]
        bv, bw = bases[v], bases[w]
        cols = []
        for b in bv.basis:
            img = rho.mats[a].apply(b)
            coords = bw.coordinates(img)
            if coords is None:
                raise ConstructionError("arrow %d does not map stalk %d "
                                        "into stalk %d" % (a, v, w))
            cols.append(coords)
        mats.append(Matrix(MR, dims[w], dims[v],
                           [cols[j][i] for i in range(dims[w])
                            for j in range(dims[v])]))
    return SheafData(g, rho.ring, MR, dims, mats, stalk_bases=tuple(bases))


def reference_span_vectors_ring_ops(MR, basis, bound):
    """Slow reference for ``linalg.span_vectors``: the combination loop of
    ``modules.is_isomorphic`` before it, by ring operations (verbatim
    but for the flat length, read off the basis)."""
    size = len(basis[0]) if basis else 0
    for coeffs in nonzero_vectors(MR, len(basis), bound):
        flat = [MR.zero] * size
        for c, b in zip(coeffs, basis):
            if c == MR.zero:
                continue
            for t in range(size):
                flat[t] = MR.coerce(flat[t] + c * b[t])
        yield tuple(flat)


def reference_span_vectors_mod(F, basis, bound):
    """Slow reference for ``linalg.span_vectors``: the combination loop of
    ``modules._kernels`` and the MeatAxe fallback before it, by integers
    mod the modulus (verbatim but for the flat length)."""
    p, size = F.modulus, len(basis[0]) if basis else 0
    for coeffs in nonzero_vectors(F, len(basis), bound):
        flat = [0] * size
        for c, b in zip(coeffs, basis):
            if c:
                flat = [(x + c * y) % p for x, y in zip(flat, b)]
        yield tuple(flat)


def reference_first_escape(maps, space):
    """Slow reference for ``linalg.first_escape``: every image reduced by
    the canonical basis with ring operations, on Fractions over Q."""
    R, rows = space.ring, space._rows()
    for v in space.basis:
        for i, M in enumerate(maps):
            if any(reference_reduce(R, rows, list(M.apply(v)))):
                return i, v
    return None


def reference_rref_closure(maps, ring, rows, width):
    """Slow reference for ``linalg.closure`` by batch Gauss-Jordan alone
    (``reference_rref``): add every image of the basis until the RREF
    stops changing."""
    basis = reference_rref(ring, [list(r) for r in rows], width)
    while True:
        grown = reference_rref(ring, [list(b) for b in basis]
                               + [list(M.apply(b)) for b in basis
                                  for M in maps], width)
        if grown == basis:
            return basis
        basis = grown


def reference_validate(g):
    """Slow reference for ``groupoid.validate``: the axioms checked with
    every composable triple scanned for associativity."""
    errs = []
    n, m = g.n_objects, g.n_arrows

    def obj_ok(u):
        return 0 <= u < n

    def arr_ok(a):
        return 0 <= a < m

    for a in range(m):
        if not obj_ok(g.src[a]):
            errs.append("arrow %d has out-of-range domain %d" % (a, g.src[a]))
        if not obj_ok(g.tgt[a]):
            errs.append("arrow %d has out-of-range range %d" % (a, g.tgt[a]))
    if len(g.unit_of) != n:
        errs.append("expected %d units, got %d" % (n, len(g.unit_of)))
        return errs
    if len(g.inv) != m:
        errs.append("expected %d inverse entries, got %d" % (m, len(g.inv)))
        return errs
    for u in range(n):
        e = g.unit_of[u]
        if not arr_ok(e):
            errs.append("unit of object %d is out of range: %d" % (u, e))
        elif g.src[e] != u or g.tgt[e] != u:
            errs.append("unit arrow %d of object %d is not a loop at it" % (e, u))
    for a in range(m):
        if not arr_ok(g.inv[a]):
            errs.append("inverse of arrow %d out of range" % a)

    for (a, b), c in g.comp.items():
        if not (arr_ok(a) and arr_ok(b) and arr_ok(c)):
            errs.append("composition entry (%d,%d)->%d out of range" % (a, b, c))
            continue
        if g.src[a] != g.tgt[b]:
            errs.append("composition defined on non-composable pair (%d,%d)"
                        % (a, b))
        elif g.src[c] != g.src[b] or g.tgt[c] != g.tgt[a]:
            errs.append("composite of (%d,%d) has wrong endpoints" % (a, b))
    for a in range(m):
        for b in range(m):
            if g.src[a] == g.tgt[b] and (a, b) not in g.comp:
                errs.append("missing composition for composable pair (%d,%d)"
                            % (a, b))
    if errs:
        return errs

    for a in range(m):
        e_r, e_d = g.unit_of[g.tgt[a]], g.unit_of[g.src[a]]
        if g.comp[(e_r, a)] != a:
            errs.append("left unit law fails at arrow %d" % a)
        if g.comp[(a, e_d)] != a:
            errs.append("right unit law fails at arrow %d" % a)
        ia = g.inv[a]
        if g.src[ia] != g.tgt[a] or g.tgt[ia] != g.src[a]:
            errs.append("inverse of arrow %d has wrong endpoints" % a)
        else:
            if g.comp[(a, ia)] != g.unit_of[g.tgt[a]]:
                errs.append("a . inv(a) is not a unit for arrow %d" % a)
            if g.comp[(ia, a)] != g.unit_of[g.src[a]]:
                errs.append("inv(a) . a is not a unit for arrow %d" % a)
    for a in range(m):
        for b in range(m):
            if g.src[a] != g.tgt[b]:
                continue
            ab = g.comp[(a, b)]
            for c in range(m):
                if g.src[b] != g.tgt[c]:
                    continue
                if g.comp[(ab, c)] != g.comp[(a, g.comp[(b, c)])]:
                    errs.append("associativity fails on (%d,%d,%d)" % (a, b, c))
    return errs


def reference_arrows_into(g, u):
    """Slow reference for ``FiniteGroupoid.arrows_into``: every arrow
    scanned, whatever u is."""
    return tuple(a for a in range(g.n_arrows) if g.tgt[a] == u)


def reference_arrows_from(g, u):
    """Slow reference for ``FiniteGroupoid.arrows_from``."""
    return tuple(a for a in range(g.n_arrows) if g.src[a] == u)


def reference_arrows_from_to(g, v, w):
    """Slow reference for ``FiniteGroupoid.arrows_from_to``."""
    return tuple(a for a in range(g.n_arrows)
                 if g.src[a] == v and g.tgt[a] == w)


def reference_missing_pairs(g):
    """Slow reference for the missing-composition check of
    ``groupoid.validate``: every pair (a, b) of arrows scanned, in order,
    for src[a] == tgt[b] with no composite."""
    m = g.n_arrows
    return [(a, b) for a in range(m) for b in range(m)
            if g.src[a] == g.tgt[b] and (a, b) not in g.comp]


def reference_failing_triples(src, tgt, comp):
    """Slow reference for ``groupoid._failing_triples``: every triple of
    arrows scanned, in order, for composable ones with (ab)c != a(bc)."""
    m = range(len(src))
    return ((a, b, c) for a in m for b in m if src[a] == tgt[b]
            for c in m if src[b] == tgt[c]
            and comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])])


def reference_group_table(table):
    """Slow reference for ``groupoid._group_table``: (errors, identity,
    inverses), associativity by a scan of every triple up to the first
    failure."""
    k = len(table)
    for row in table:
        if len(row) != k:
            return ["table is not square"], None, None
    for row in table:
        for x in row:
            if not 0 <= x < k:
                return ["table entry %r out of range" % (x,)], None, None
    ident = next((e for e in range(k)
                  if all(table[e][x] == x and table[x][e] == x
                         for x in range(k))), None)
    if ident is None:
        return ["no identity element"], None, None
    inv = [next((b for b in range(k)
                 if table[a][b] == ident and table[b][a] == ident), None)
           for a in range(k)]
    errs = ["element %d has no inverse" % a
            for a in range(k) if inv[a] is None]
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    errs.append("associativity fails at (%d,%d,%d)" % (a, b, c))
                    return errs, ident, inv
    return errs, ident, inv


def reference_cyclic_module(G, gen, C):
    """Slow reference for ``modules._cyclic_module``: gen^k acts by C^k,
    one product per element of G."""
    mats = [None] * G.order
    x, P = G.identity, Matrix.identity(C.ring, C.nrows)
    for _ in range(G.order):
        mats[x] = P
        x = G.table[x][gen]
        P = P * C
    return IsotropyModule(G, C.ring, C.nrows, mats)
