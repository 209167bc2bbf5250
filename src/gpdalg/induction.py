"""Induction from an isotropy group up to the groupoid algebra, through
the disintegration.

Fix a transversal: an arrow t_v: u -> v for every v in the orbit of u,
the unit at u.  The map a -> (v, w, t_w^{-1} a t_v), for a: v -> w, is a
bijection from the arrows of the orbit onto orbit x orbit x G_u, with
inverse (v, w, x) -> t_w x t_v^{-1} (``groupoid.orbit_blocks``, the one
layout of the orbit).  So on the orbit the groupoid algebra is the
matrix algebra over R[G_u] with one block per pair (v, w), and the
arrows off the orbit span a complementary two-sided ideal.

The induced module of a G_u-module N puts N on every block: it is the
module of sections (``gamma_c``) of the sheaf with stalk N on the orbit
and 0 elsewhere, the arrow a: v -> w acting by N at t_w^{-1} a t_v.

Its annihilator puts Ann(N) on every block.  An element f kills the
induced module iff f vanishes off the orbit and, for every pair (v, w),
the group algebra element collecting f over the arrows v -> w lies in
Ann(N).  By the bijection these conditions only permute coordinates, so
the annihilator is the ``product_ideal`` with Ann(N) on the orbit of u
and the whole group algebra R[G_v] on every other orbit.  That is exact
over every Z/n, and no system is solved.  Another transversal
multiplies each block by loops on both sides, which fixes the two-sided
ideal Ann(N), so the annihilator does not depend on the choice.
"""

from __future__ import annotations

from .errors import ConstructionError, GroupoidMismatchError
from .groupoid import FiniteGroupoid, isotropy, orbit_blocks, orbits
from .ideals import Ideal, product_ideal
from .linalg import Matrix, Subspace
from .modules import IsotropyModule, Rep, module_annihilator_space
from .rings import ScalarRing
from .sheaves import SheafData, gamma_c


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
    MR = N.matrix_ring
    mats = [Matrix.zeros(MR, 0, 0)] * g.n_arrows
    dims = [0] * g.n_objects
    for block in orbit_blocks(g, u):
        for a, M in zip(block, N.mats):
            mats[a] = M
            dims[g.src[a]] = N.dim
    return gamma_c(SheafData(g, ring, MR, dims, mats))


def induced_annihilator_from_space(g: FiniteGroupoid, ring: ScalarRing,
                                   u: int, ann_space: Subspace) -> Ideal:
    """Annihilator of an induced module, given the annihilator of the
    isotropy module as a subspace of the group algebra: Ann(N) on every
    block of the orbit, and every arrow off it.  That is an ideal iff
    Ann(N) is one of R[G_u], so only Ann(N) is checked."""
    G = isotropy(g, u)
    if ann_space.ring != ring or ann_space.ambient_dim != G.order:
        raise ConstructionError("annihilator space must live in the group "
                                "algebra of the isotropy group")
    Ideal(G.groupoid, ring, ann_space, check=True)
    orb = orbits(g)
    return product_ideal(g, ring, [
        (u, ann_space) if orb.orbit_of[v] == orb.orbit_of[u]
        else (v, Subspace.full(ring, isotropy(g, v).order))
        for v in orb.representatives])


def induced_annihilator_direct(g: FiniteGroupoid, ring: ScalarRing, u: int,
                               N: IsotropyModule) -> Ideal:
    """Annihilator of the induced module, straight from Ann(N)."""
    return induced_annihilator_from_space(g, ring, u,
                                          module_annihilator_space(N))
