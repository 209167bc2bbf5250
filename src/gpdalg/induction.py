"""Induction from an isotropy group up to the groupoid algebra.

Fixing a transversal of arrows out of the base object u, the induced
module of a G_u-module N is block-indexed by the orbit of u, and an
algebra element f acts on the (w, v) block by the N-matrix of the loop
conjugate(gamma) = t_w^{-1} gamma t_v summed over arrows gamma: v -> w.

The annihilator of an induced module can be computed without building
it: f annihilates iff for every pair (v, w) in the orbit the group
algebra element collecting f over arrows v -> w lies in the annihilator
of N.  Those membership conditions are linear, so the annihilator is a
preimage computation.
"""

from __future__ import annotations

from .errors import ConstructionError, GroupoidMismatchError
from .groupoid import FiniteGroupoid, IsotropyGroup, isotropy, orbits
from .ideals import Ideal
from .linalg import Matrix, Subspace, subspace_preimage
from .modules import IsotropyModule, Rep, module_annihilator_space
from .rings import ScalarRing


class Transversal:
    """One arrow u -> v for every v in the orbit of u; the unit at u."""

    __slots__ = ("base", "objects", "arrow_to")

    def __init__(self, g: FiniteGroupoid, base: int, arrow_to: dict):
        orbit = orbits(g).orbit_containing(base)
        if sorted(arrow_to) != list(orbit):
            raise ConstructionError("transversal must cover the orbit %r"
                                    % (orbit,))
        for v, a in arrow_to.items():
            if g.src[a] != base or g.tgt[a] != v:
                raise ConstructionError("arrow %d is not %d -> %d"
                                        % (a, base, v))
        if arrow_to[base] != g.unit_of[base]:
            raise ConstructionError("the base must be assigned its unit")
        self.base = base
        self.objects = tuple(orbit)
        self.arrow_to = dict(arrow_to)

    def __getitem__(self, v: int) -> int:
        return self.arrow_to[v]

    def __repr__(self):
        return "Transversal(base %d, orbit %s)" % (self.base, self.objects)


def transversal(g: FiniteGroupoid, u: int) -> Transversal:
    """Default transversal: the smallest-id arrow u -> v, the unit at u."""
    orbit = orbits(g).orbit_containing(u)
    arrow_to = {}
    for v in orbit:
        if v == u:
            arrow_to[v] = g.unit_of[u]
        else:
            choices = g.arrows_from_to(u, v)
            if not choices:
                raise ConstructionError("no arrow %d -> %d inside the orbit"
                                        % (u, v))
            arrow_to[v] = choices[0]
    return Transversal(g, u, arrow_to)


def _conjugate_index(g: FiniteGroupoid, G: IsotropyGroup, T: Transversal,
                     a: int) -> int:
    """Index in G of t_w^{-1} a t_v for the arrow a: v -> w."""
    v, w = g.src[a], g.tgt[a]
    loop = g.comp[(g.inv[T[w]], g.comp[(a, T[v])])]
    return G.index_of[loop]


def induce(g: FiniteGroupoid, ring: ScalarRing, u: int, N: IsotropyModule,
           T: Transversal | None = None) -> Rep:
    """Induced module of the G_u-module N, blocked over the orbit of u."""
    G = isotropy(g, u)
    if N.group.arrow_ids != G.arrow_ids or N.group.table != G.table:
        raise GroupoidMismatchError("module is not over the isotropy group "
                                    "at object %d" % u)
    if N.ring != ring:
        raise GroupoidMismatchError("module over the wrong coefficient ring")
    if T is None:
        T = transversal(g, u)
    elif T.base != u:
        raise ConstructionError("transversal based at %d, not %d" % (T.base, u))
    MR = N.matrix_ring
    obj = T.objects
    offset = {v: i * N.dim for i, v in enumerate(obj)}
    dim = len(obj) * N.dim
    in_orbit = set(obj)
    mats = []
    for a in range(g.n_arrows):
        v, w = g.src[a], g.tgt[a]
        ent = [MR.zero] * (dim * dim)
        if v in in_orbit and w in in_orbit:
            block = N.mats[_conjugate_index(g, G, T, a)]
            ro, co = offset[w], offset[v]
            for i in range(N.dim):
                base = (ro + i) * dim + co
                for j in range(N.dim):
                    ent[base + j] = block.at(i, j)
        mats.append(Matrix(MR, dim, dim, ent))
    return Rep(g, ring, dim, mats, matrix_ring=MR)


def induced_annihilator_from_space(g: FiniteGroupoid, ring: ScalarRing,
                                   u: int, ann_space: Subspace,
                                   T: Transversal | None = None) -> Ideal:
    """Annihilator of an induced module, given the annihilator of the
    isotropy module as a subspace of the group algebra."""
    G = isotropy(g, u)
    if ann_space.ring != ring or ann_space.ambient_dim != G.order:
        raise ConstructionError("annihilator space must live in the group "
                                "algebra of the isotropy group")
    if T is None:
        T = transversal(g, u)
    obj = T.objects
    m = g.n_arrows
    k = G.order
    pairs = [(v, w) for v in obj for w in obj]
    rows = []
    for v, w in pairs:
        block = [[ring.zero] * m for _ in range(k)]
        for a in g.arrows_from_to(v, w):
            block[_conjugate_index(g, G, T, a)][a] = ring.one
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


def induced_annihilator_direct(g: FiniteGroupoid, ring: ScalarRing, u: int,
                               N: IsotropyModule,
                               T: Transversal | None = None) -> Ideal:
    """Annihilator of the induced module, straight from Ann(N)."""
    return induced_annihilator_from_space(g, ring, u,
                                          module_annihilator_space(N), T)
