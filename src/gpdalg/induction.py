"""Induction from an isotropy group up to the groupoid algebra, through
the disintegration.

Fix a transversal: an arrow t_v: u -> v for every v in the orbit of u,
the unit at u.  The map a -> (v, w, t_w^{-1} a t_v), for a: v -> w, is a
bijection from the arrows of the orbit onto orbit x orbit x G_u, with
inverse (v, w, x) -> t_w x t_v^{-1}.  So on the orbit the groupoid
algebra is the matrix algebra over R[G_u] with one block per pair (v, w),
and the arrows off the orbit span a complementary two-sided ideal.

The induced module of a G_u-module N puts N on every block: it is the
module of sections (``gamma_c``) of the sheaf with stalk N on the orbit
and 0 elsewhere, the arrow a: v -> w acting by N at t_w^{-1} a t_v.

Its annihilator puts Ann(N) on every block.  An element f kills the
induced module iff f vanishes off the orbit and, for every pair (v, w),
the group algebra element collecting f over the arrows v -> w lies in
Ann(N).  By the bijection these conditions only permute coordinates, so
the annihilator is spanned by e_a for every arrow a off the orbit and,
for every pair (v, w) and basis row b of Ann(N), the f with
f(a) = b[t_w^{-1} a t_v] on the arrows v -> w and 0 elsewhere.  That is
exact over every Z/n, and no system is solved.  Another transversal
multiplies each block by loops on both sides, which fixes the two-sided
ideal Ann(N), so the annihilator does not depend on the choice.
"""

from __future__ import annotations

from .errors import ConstructionError, GroupoidMismatchError
from .groupoid import FiniteGroupoid, IsotropyGroup, isotropy, orbits
from .ideals import Ideal
from .linalg import Matrix, Subspace
from .modules import IsotropyModule, Rep, module_annihilator_space
from .rings import ScalarRing
from .sheaves import SheafData, gamma_c


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


def _conjugate_index(g: FiniteGroupoid, G: IsotropyGroup, T: dict,
                     a: int) -> int:
    """Index in G of t_w^{-1} a t_v for the arrow a: v -> w."""
    v, w = g.src[a], g.tgt[a]
    loop = g.comp[(g.inv[T[w]], g.comp[(a, T[v])])]
    return G.index_of[loop]


def induce(g: FiniteGroupoid, ring: ScalarRing, u: int,
           N: IsotropyModule) -> Rep:
    """Induced module of the G_u-module N: the sections of the sheaf with
    stalk N on the orbit of u and 0 elsewhere."""
    G = isotropy(g, u)
    if N.group.arrow_ids != G.arrow_ids or N.group.table != G.table:
        raise GroupoidMismatchError("module is not over the isotropy group "
                                    "at object %d" % u)
    if N.ring != ring:
        raise GroupoidMismatchError("module over the wrong coefficient ring")
    T = transversal(g, u)
    MR = N.matrix_ring
    empty = Matrix.zeros(MR, 0, 0)
    mats = [N.mats[_conjugate_index(g, G, T, a)] if g.src[a] in T else empty
            for a in range(g.n_arrows)]
    dims = [N.dim if v in T else 0 for v in range(g.n_objects)]
    return gamma_c(SheafData(g, ring, MR, dims, mats))


def induced_annihilator_from_space(g: FiniteGroupoid, ring: ScalarRing,
                                   u: int, ann_space: Subspace) -> Ideal:
    """Annihilator of an induced module, given the annihilator of the
    isotropy module as a subspace of the group algebra: every arrow off
    the orbit, and Ann(N) on every block of the orbit.  That is an ideal
    iff Ann(N) is one of R[G_u], so only Ann(N) is checked."""
    G = isotropy(g, u)
    if ann_space.ring != ring or ann_space.ambient_dim != G.order:
        raise ConstructionError("annihilator space must live in the group "
                                "algebra of the isotropy group")
    Ideal(G.groupoid, ring, ann_space, check=True)
    T = transversal(g, u)
    m = g.n_arrows
    gens = []
    blocks = {}
    for a in range(m):
        if g.src[a] in T:
            blocks.setdefault((g.src[a], g.tgt[a]), []).append(
                (a, _conjugate_index(g, G, T, a)))
        else:
            gens.append([ring.one if i == a else ring.zero
                         for i in range(m)])
    for block in blocks.values():
        for b in ann_space.basis:
            f = [ring.zero] * m
            for a, i in block:
                f[a] = b[i]
            gens.append(f)
    return Ideal(g, ring, Subspace(ring, m, gens), check=False)


def induced_annihilator_direct(g: FiniteGroupoid, ring: ScalarRing, u: int,
                               N: IsotropyModule) -> Ideal:
    """Annihilator of the induced module, straight from Ann(N)."""
    return induced_annihilator_from_space(g, ring, u,
                                          module_annihilator_space(N))
