"""Finite groupoids with explicit composition tables.

Arrows are integer ids.  ``src[a]`` and ``tgt[a]`` give the domain and
range objects of arrow ``a``; ``comp`` maps exactly the composable pairs
(a, b) with src[a] == tgt[b] to the composite arrow "a after b".
"""

from __future__ import annotations

from .errors import ConstructionError, NotABisectionError


class FiniteGroupoid:
    __slots__ = ("n_objects", "src", "tgt", "unit_of", "comp", "inv",
                 "_into", "_from", "memo")

    def __init__(self, n_objects, arrows, units, comp, inv):
        self.n_objects = n_objects
        self.src = tuple(d for d, _ in arrows)
        self.tgt = tuple(r for _, r in arrows)
        self.unit_of = tuple(units)
        self.comp = dict(comp)
        self.inv = tuple(inv)
        # Arrows by raw endpoint, ascending: unvalidated data is indexed too.
        into, out = {}, {}
        for a, (d, r) in enumerate(zip(self.src, self.tgt)):
            into.setdefault(r, []).append(a)
            out.setdefault(d, []).append(a)
        self._into = {u: tuple(x) for u, x in into.items()}
        self._from = {u: tuple(x) for u, x in out.items()}
        self.memo = {}  # tables derived on first use; not part of the value

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def d(self, a: int) -> int:
        return self.src[a]

    def r(self, a: int) -> int:
        return self.tgt[a]

    def unit(self, u: int) -> int:
        return self.unit_of[u]

    def composable(self, a: int, b: int) -> bool:
        return self.src[a] == self.tgt[b]

    def arrows_from_to(self, v: int, w: int) -> tuple:
        """Arrows with domain v and range w, ascending ids."""
        return tuple(a for a in self.arrows_from(v) if self.tgt[a] == w)

    def loops_at(self, u: int) -> tuple:
        return self.arrows_from_to(u, u)

    def arrows_into(self, u: int) -> tuple:
        return self._into.get(u, ())

    def arrows_from(self, u: int) -> tuple:
        return self._from.get(u, ())

    def __eq__(self, other):
        return isinstance(other, FiniteGroupoid) \
            and self.n_objects == other.n_objects \
            and self.src == other.src and self.tgt == other.tgt \
            and self.unit_of == other.unit_of \
            and self.comp == other.comp and self.inv == other.inv

    def __hash__(self):
        return hash((self.n_objects, self.src, self.tgt, self.unit_of,
                     tuple(sorted(self.comp.items())), self.inv))

    def __repr__(self):
        return "FiniteGroupoid(%d objects, %d arrows)" % (self.n_objects,
                                                          self.n_arrows)

    def to_json_dict(self) -> dict:
        return {
            "objects": self.n_objects,
            "arrows": [{"d": self.src[a], "r": self.tgt[a]}
                       for a in range(self.n_arrows)],
            "units": list(self.unit_of),
            "comp": [[a, b, c] for (a, b), c in sorted(self.comp.items())],
            "inv": list(self.inv),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteGroupoid":
        def n(x):  # a JSON integer: 1.9, true and "0" are refused
            if type(x) is not int:
                raise TypeError("%r is not an integer" % (x,))
            return x
        try:
            arrows = [(n(a["d"]), n(a["r"])) for a in data["arrows"]]
            comp = {}
            for a, b, c in data["comp"]:
                key = (n(a), n(b))
                if key in comp:  # the last entry would silently win
                    raise ValueError("duplicate composition entry (%d,%d)"
                                     % key)
                comp[key] = n(c)
            return cls(n(data["objects"]), arrows,
                       [n(u) for u in data["units"]], comp,
                       [n(i) for i in data["inv"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError("malformed groupoid data: %s" % exc)


def _associative(g: FiniteGroupoid) -> bool:
    """Light's test: True proves g.comp, defined on the composable pairs
    with the right endpoints, associative.  The b with (ab)c = a(bc) for
    all a, c are closed under it (Clifford & Preston, The Algebraic
    Theory of Semigroups I, 1961, 1.2), so b runs over a greedy
    generating set: each arrow that the closure of those picked before
    under left multiplication by them missed."""
    comp = g.comp
    picked, reached = [], set()
    for b in range(g.n_arrows):
        if b in reached:
            continue
        bcs = [(c, comp[(b, c)]) for c in g.arrows_into(g.src[b])]
        for a in g.arrows_from(g.tgt[b]):
            ab = comp[(a, b)]
            for c, bc in bcs:
                if comp[(ab, c)] != comp[(a, bc)]:
                    return False
        picked.append(b)
        reached.add(b)
        frontier = list(reached)
        while frontier:
            y = frontier.pop()
            for z in (comp[(s, y)] for s in picked if g.src[s] == g.tgt[y]):
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
    return True


def _failing_triples(g: FiniteGroupoid):
    """The composable triples (a, b, c) with (ab)c != a(bc), in order."""
    comp = g.comp
    return ((a, b, c) for a in range(g.n_arrows)
            for b in g.arrows_into(g.src[a])
            for c in g.arrows_into(g.src[b])
            if comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])])


def validate(g: FiniteGroupoid) -> list[str]:
    """All axiom violations, as human-readable strings.  Empty means valid."""
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
        for b in g.arrows_into(g.src[a]):
            if (a, b) not in g.comp:
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
    if not _associative(g):
        errs += ["associativity fails on (%d,%d,%d)" % t
                 for t in _failing_triples(g)]
    return errs


# ---------------------------------------------------------------------------
# constructors

def pair_groupoid(n: int) -> FiniteGroupoid:
    """Objects 0..n-1, one arrow (i, j) : j -> i for every ordered pair."""
    if n < 1:
        raise ConstructionError("pair groupoid needs n >= 1")
    idx = {}
    arrows = []
    for i in range(n):
        for j in range(n):
            idx[(i, j)] = len(arrows)
            arrows.append((j, i))  # domain j, range i
    units = [idx[(u, u)] for u in range(n)]
    comp = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comp[(idx[(i, j)], idx[(j, k)])] = idx[(i, k)]
    inv = [idx[(j, i)] for (i, j) in
           [(a // n, a % n) for a in range(n * n)]]
    return FiniteGroupoid(n, arrows, units, comp, inv)


def validate_group_table(table) -> list[str]:
    """Group axioms for a multiplication table table[a][b] = ab."""
    return _group_table(table)[0]


def _group_table(table) -> tuple:
    """(errors, identity, inverses) of a multiplication table: the failed
    group axioms, then the identity and each element's inverse, each found
    once (None where missing, or before the checks reach them)."""
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
    g = _table_groupoid(table, ident, inv)
    if not _associative(g):
        errs.append("associativity fails at (%d,%d,%d)"
                    % next(_failing_triples(g)))
    return errs, ident, inv


def _table_groupoid(table, identity, inv) -> FiniteGroupoid:
    """The one-object groupoid of a multiplication table, arrow i being
    element i, built unchecked."""
    comp = {(a, b): x for a, r in enumerate(table) for b, x in enumerate(r)}
    return FiniteGroupoid(1, [(0, 0)] * len(table), [identity], comp, inv)


def cyclic_table(k: int) -> list[list[int]]:
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def group_groupoid(table) -> FiniteGroupoid:
    """One object; arrows are the group elements, composition the table."""
    return action_groupoid(table, [(0,)] * len(table))


def action_groupoid(table, perms) -> FiniteGroupoid:
    """Action groupoid of a group acting on points 0..X-1.

    ``perms[gel]`` is the image tuple of the point set under the group
    element ``gel``; arrow (gel, x) runs from x to perms[gel][x] and the
    arrow id is gel * X + x.
    """
    errs, ident, ginv = _group_table(table)
    if errs:
        raise ConstructionError("bad group table: %s" % errs[0])
    k = len(table)
    if len(perms) != k:
        raise ConstructionError("need one permutation per group element")
    npts = len(perms[0])
    for p in perms:
        if len(p) != npts or sorted(p) != list(range(npts)):
            raise ConstructionError("action entry %r is not a permutation" % (p,))
    if tuple(perms[ident]) != tuple(range(npts)):
        raise ConstructionError("identity element must act trivially")
    for a in range(k):
        for b in range(k):
            for x in range(npts):
                if perms[a][perms[b][x]] != perms[table[a][b]][x]:
                    raise ConstructionError(
                        "not a left action at elements (%d,%d), point %d"
                        % (a, b, x))
    def aid(gel, x):
        return gel * npts + x
    arrows = [(x, perms[gel][x]) for gel in range(k) for x in range(npts)]
    units = [aid(ident, x) for x in range(npts)]
    comp = {}
    for a in range(k):
        for b in range(k):
            for x in range(npts):
                comp[(aid(a, perms[b][x]), aid(b, x))] = aid(table[a][b], x)
    inv = [aid(ginv[gel], perms[gel][x])
           for gel in range(k) for x in range(npts)]
    return FiniteGroupoid(npts, arrows, units, comp, inv)


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    """Side-by-side union; objects and arrows of g2 are shifted up."""
    no, na = g1.n_objects, g1.n_arrows
    arrows = [(g1.src[a], g1.tgt[a]) for a in range(na)]
    arrows += [(g2.src[a] + no, g2.tgt[a] + no) for a in range(g2.n_arrows)]
    units = list(g1.unit_of) + [e + na for e in g2.unit_of]
    comp = dict(g1.comp)
    for (a, b), c in g2.comp.items():
        comp[(a + na, b + na)] = c + na
    inv = list(g1.inv) + [i + na for i in g2.inv]
    return FiniteGroupoid(no + g2.n_objects, arrows, units, comp, inv)


# ---------------------------------------------------------------------------
# orbits and isotropy

class OrbitPartition:
    """Partition of the object set into connected components."""

    __slots__ = ("orbit_of", "classes", "representatives")

    def __init__(self, orbit_of, classes):
        self.orbit_of = tuple(orbit_of)
        self.classes = tuple(tuple(c) for c in classes)
        self.representatives = tuple(c[0] for c in self.classes)

    def orbit_containing(self, u: int) -> tuple:
        return self.classes[self.orbit_of[u]]

    def __eq__(self, other):
        return isinstance(other, OrbitPartition) and self.classes == other.classes

    def __repr__(self):
        return "OrbitPartition(%s)" % (self.classes,)


def orbits(g: FiniteGroupoid) -> OrbitPartition:
    """Connected components of the object set, built once per groupoid.

    In a groupoid the targets of the arrows out of u are exactly the
    orbit of u, so each class is read off its smallest member.  Classes
    are sorted, indexed by their smallest member."""
    key = "orbits"
    if key not in g.memo:
        orbit_of = [None] * g.n_objects
        classes = []
        for u in range(g.n_objects):
            if orbit_of[u] is None:
                cls = sorted({g.tgt[a] for a in g.arrows_from(u)})
                for v in cls:
                    orbit_of[v] = len(classes)
                classes.append(cls)
        g.memo[key] = OrbitPartition(orbit_of, classes)
    return g.memo[key]


class IsotropyGroup:
    """The group of loops at a base object, with its own element indexing.

    ``groupoid`` is the group as a one-object groupoid, arrow i being
    element i, built unchecked: ``isotropy`` reads a valid table."""

    __slots__ = ("base", "arrow_ids", "table", "inv", "identity", "groupoid")

    def __init__(self, base, arrow_ids, table, inv, identity):
        self.base = base
        self.arrow_ids = tuple(arrow_ids)
        self.table = tuple(tuple(r) for r in table)
        self.inv = tuple(inv)
        self.identity = identity
        self.groupoid = _table_groupoid(self.table, identity, self.inv)

    @property
    def order(self) -> int:
        return len(self.arrow_ids)

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            k += 1
        return k

    def generator_if_cyclic(self) -> int | None:
        for i in range(self.order):
            if self.element_order(i) == self.order:
                return i
        return None

    def __eq__(self, other):
        return isinstance(other, IsotropyGroup) and self.base == other.base \
            and self.arrow_ids == other.arrow_ids and self.table == other.table

    def __repr__(self):
        return "IsotropyGroup(base %d, order %d)" % (self.base, self.order)


def isotropy(g: FiniteGroupoid, u: int) -> IsotropyGroup:
    """Loop group at object u; elements indexed by ascending arrow id.
    Built once per groupoid object and u, so that the tables memoised on
    its one-object groupoid are built once too."""
    if not 0 <= u < g.n_objects:
        raise ConstructionError("object %d out of range" % u)
    key = ("isotropy", u)
    if key not in g.memo:
        loops = list(g.loops_at(u))
        pos = {a: i for i, a in enumerate(loops)}
        table = [[pos[g.comp[(a, b)]] for b in loops] for a in loops]
        inv = [pos[g.inv[a]] for a in loops]
        g.memo[key] = IsotropyGroup(u, loops, table, inv,
                                    pos[g.unit_of[u]])
    return g.memo[key]


def transversal(g: FiniteGroupoid, u: int) -> dict:
    """{v: arrow u -> v} over the orbit of u: the unit at u, otherwise
    the smallest-id arrow."""
    arrow_to = {}
    for v in orbits(g).orbit_containing(u):
        if v == u:
            arrow_to[v] = g.unit_of[u]
        else:
            choices = g.arrows_from_to(u, v)
            if not choices:
                raise ConstructionError("no arrow %d -> %d inside the orbit"
                                        % (u, v))
            arrow_to[v] = choices[0]
    return arrow_to


def orbit_blocks(g: FiniteGroupoid, u: int) -> list[tuple]:
    """The arrows of the orbit of u as orbit x orbit x G_u: per pair
    (v, w) of its objects, the arrows t_w x t_v^{-1}: v -> w for x over
    G_u in index order, t the ``transversal``.  That is a bijection, so
    each arrow of the orbit appears once (see ``induction``)."""
    T = transversal(g, u)
    loops = isotropy(g, u).arrow_ids
    return [tuple(g.comp[(T[w], g.comp[(x, g.inv[T[v]])])] for x in loops)
            for v in T for w in T]


def group_generators(G: IsotropyGroup) -> tuple:
    """Greedy generating set: in ascending index, every element not yet in
    the subgroup generated by the elements picked before it."""
    picked = []
    sub = {G.identity}
    for x in range(G.order):
        if x in sub:
            continue
        picked.append(x)
        frontier = list(sub)
        while frontier:
            y = frontier.pop()
            for s in picked:
                z = G.table[y][s]
                if z not in sub:
                    sub.add(z)
                    frontier.append(z)
    return tuple(picked)


def generating_arrows(g: FiniteGroupoid) -> tuple:
    """Arrows that generate g under composition, ascending ids.

    A connected groupoid is its vertex group times a tree groupoid
    (Higgins 1971), so per orbit with representative u (its smallest
    object) it takes the unit arrows, generators of the loop group at u
    and, for every other object v, the ``transversal`` arrow u -> v and
    its inverse.  A subspace is invariant under every arrow of a
    representation exactly when it is invariant under these.
    """
    key = "generating_arrows"
    if key not in g.memo:
        gens = set(g.unit_of)
        for u in orbits(g).representatives:
            G = isotropy(g, u)
            gens.update(G.arrow_ids[i] for i in group_generators(G))
            for a in transversal(g, u).values():
                gens.update((a, g.inv[a]))
        g.memo[key] = tuple(sorted(gens))
    return g.memo[key]


def functor_breaks(g: FiniteGroupoid, mats) -> list[tuple]:
    """The pairs (s, b), s in ``generating_arrows`` and b with
    r(b) = d(s), both ascending, where mats[s] mats[b] != mats[sb].

    None means mats[a] mats[b] = mats[ab] on every composable pair:
    every arrow is a word in the generating arrows, so induction on the
    length of a = s a' gives mats[a] mats[b] = mats[s] mats[a'] mats[b]
    = mats[s] mats[a'b] = mats[ab].  That argument assumes a valid
    groupoid (``validate(g) == []``)."""
    return [(s, b) for s in generating_arrows(g)
            for b in g.arrows_into(g.src[s])
            if mats[s] * mats[b] != mats[g.comp[(s, b)]]]


# ---------------------------------------------------------------------------
# local bisections

class LocalBisection:
    """Arrow subset on which domain and range are both injective."""

    __slots__ = ("arrows",)

    def __init__(self, arrows):
        self.arrows = tuple(sorted(set(arrows)))

    def __eq__(self, other):
        return isinstance(other, LocalBisection) and self.arrows == other.arrows

    def __hash__(self):
        return hash(self.arrows)

    def __repr__(self):
        return "LocalBisection(%s)" % (self.arrows,)


def is_bisection(g: FiniteGroupoid, arrows) -> bool:
    arrows = list(arrows)
    ds = [g.src[a] for a in arrows]
    rs = [g.tgt[a] for a in arrows]
    return len(set(ds)) == len(ds) and len(set(rs)) == len(rs)


def bisection(g: FiniteGroupoid, arrows) -> LocalBisection:
    if not is_bisection(g, arrows):
        raise NotABisectionError("domain or range not injective on %r"
                                 % (sorted(arrows),))
    return LocalBisection(arrows)


def bisection_mul(g: FiniteGroupoid, U: LocalBisection,
                  V: LocalBisection) -> LocalBisection:
    """UV = all composites of a composable pair from U x V."""
    prod = [g.comp[(a, b)] for a in U.arrows for b in V.arrows
            if g.src[a] == g.tgt[b]]
    return bisection(g, prod)


def bisection_inv(g: FiniteGroupoid, U: LocalBisection) -> LocalBisection:
    return bisection(g, [g.inv[a] for a in U.arrows])


def identity_bisection(g: FiniteGroupoid) -> LocalBisection:
    return LocalBisection(g.unit_of)


def all_bisections(g: FiniteGroupoid) -> list[LocalBisection]:
    """Every local bisection, the empty one included."""
    out = []

    def extend(start, chosen, used_d, used_r):
        out.append(LocalBisection(chosen))
        for a in range(start, g.n_arrows):
            if g.src[a] in used_d or g.tgt[a] in used_r:
                continue
            extend(a + 1, chosen + [a],
                   used_d | {g.src[a]}, used_r | {g.tgt[a]})

    extend(0, [], set(), set())
    return out


def relabel_arrows(g: FiniteGroupoid, perm) -> FiniteGroupoid:
    """Groupoid with arrow a renamed perm[a]; used for invariance checks."""
    if sorted(perm) != list(range(g.n_arrows)):
        raise ConstructionError("not a permutation of the arrows")
    arrows = [None] * g.n_arrows
    inv = [None] * g.n_arrows
    for a in range(g.n_arrows):
        arrows[perm[a]] = (g.src[a], g.tgt[a])
        inv[perm[a]] = perm[g.inv[a]]
    units = [perm[e] for e in g.unit_of]
    comp = {(perm[a], perm[b]): perm[c] for (a, b), c in g.comp.items()}
    return FiniteGroupoid(g.n_objects, arrows, units, comp, inv)
