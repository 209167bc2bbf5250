"""Disintegration of a module into stalks and reassembly from them.

The unit indicators of a unitary module are orthogonal idempotents
summing to the identity, so the module splits into their images, the
stalks.  Each arrow restricts to an invertible map between the stalks at
its endpoints; loops make every stalk a module over the isotropy group.
The compactly supported sections of this bundle recover the module.
"""

from __future__ import annotations

from .errors import (ConstructionError, NonFreeQuotientError,
                     UnsupportedRingError)
from .groupoid import FiniteGroupoid, functor_breaks, isotropy, orbits
from .linalg import (DEFAULT_BOUND, Matrix, Subspace, canonical_rows,
                     poly_at, restrict)
from .meataxe import proper_submodule
from .modules import (IsotropyModule, Rep, _cyclotomic, matrix_invertible,
                      rep_validate)
from .rings import ScalarRing


class SheafData:
    """Stalk dimensions and one invertible matrix per arrow."""

    __slots__ = ("groupoid", "ring", "matrix_ring", "stalk_dims",
                 "arrow_mats", "stalk_bases")

    def __init__(self, groupoid: FiniteGroupoid, ring: ScalarRing,
                 matrix_ring: ScalarRing, stalk_dims, arrow_mats,
                 stalk_bases=None):
        self.groupoid = groupoid
        self.ring = ring
        self.matrix_ring = matrix_ring
        self.stalk_dims = tuple(stalk_dims)
        self.arrow_mats = tuple(arrow_mats)
        self.stalk_bases = stalk_bases
        if len(self.stalk_dims) != groupoid.n_objects:
            raise ConstructionError("one stalk dimension per object")
        if len(self.arrow_mats) != groupoid.n_arrows:
            raise ConstructionError("one matrix per arrow")
        for a, M in enumerate(self.arrow_mats):
            if M.nrows != self.stalk_dims[groupoid.tgt[a]] \
                    or M.ncols != self.stalk_dims[groupoid.src[a]]:
                raise ConstructionError("arrow %d matrix has shape %dx%d, "
                                        "stalks want %dx%d"
                                        % (a, M.nrows, M.ncols,
                                           self.stalk_dims[groupoid.tgt[a]],
                                           self.stalk_dims[groupoid.src[a]]))

    def support(self) -> tuple:
        return tuple(u for u in range(self.groupoid.n_objects)
                     if self.stalk_dims[u] > 0)

    def __repr__(self):
        return "SheafData(stalk dims %s over %s)" % (
            list(self.stalk_dims), self.ring.spec_string())

    def to_json_dict(self) -> dict:
        d = {"ring": self.ring.spec_string(),
             "stalk_dims": list(self.stalk_dims),
             "matrices": [M.entry_strings() for M in self.arrow_mats]}
        if self.matrix_ring != self.ring:
            d["matrix_ring"] = self.matrix_ring.spec_string()
        return d


def sheaf_validate(S: SheafData) -> list[str]:
    """Units act as identities, then the pairs ``functor_breaks`` finds.
    With none, S(a) S(b) = S(ab) on every composable pair, so arrows act
    invertibly: S(a) S(a^-1) = S(e) = 1."""
    g, M = S.groupoid, S.arrow_mats
    errs = ["unit at object %d does not act as identity" % u
            for u in range(g.n_objects)
            if M[g.unit_of[u]] != Matrix.identity(S.matrix_ring,
                                                  S.stalk_dims[u])]
    return errs + ["arrow matrices break composition at (%d,%d)" % sb
                   for sb in functor_breaks(g, M)]


def _stalk_basis(rho: Rep, u: int) -> Subspace:
    """Canonical basis of the image of the unit idempotent at u: the span
    of its nonzero columns."""
    P = rho.mats[rho.groupoid.unit_of[u]].transpose()
    rows = [P.row(j) for j, col in enumerate(P._nz) if col]
    basis = canonical_rows(rho.matrix_ring, rows, P.ncols)
    space = Subspace._trusted(rho.matrix_ring, P.ncols, basis)
    if not space.has_unit_pivots():
        raise NonFreeQuotientError(
            "stalk at object %d is not free over %s"
            % (u, rho.matrix_ring.spec_string()))
    return space


def sheaf_of(rho: Rep) -> SheafData:
    """Disintegrate a unitary module into its stalks, the images of the
    unit idempotents, each arrow ``restrict``-ed between its end stalks."""
    errs = rep_validate(rho)
    if errs:
        raise ConstructionError("not a module: %s" % errs[0])
    g = rho.groupoid
    bases = [_stalk_basis(rho, u) for u in range(g.n_objects)]
    # rho(e_w) rho(a) = rho(a) on a valid module: a maps stalk v into w.
    mats = [restrict(rho.mats[a], bases[g.src[a]], bases[g.tgt[a]])
            for a in range(g.n_arrows)]
    return SheafData(g, rho.ring, rho.matrix_ring,
                     [b.num_rows for b in bases], mats,
                     stalk_bases=tuple(bases))


def regular_sheaf(g: FiniteGroupoid, ring: ScalarRing) -> SheafData:
    """``sheaf_of(regular_rep(g, ring))`` read off the composition table.

    rho(e_u) sends e_b to e_b when r(b) = u and to 0 otherwise, so its
    nonzero columns are the unit vectors e_b, r(b) = u, already
    canonical: the stalk at u is free on the arrows into u, ascending.
    L_a for a: v -> w sends e_b to e_ab, so row b' of the stalk matrix
    (b' into w) holds a single 1, in the column of a^-1 b' among the
    arrows into v.  The regular module of a groupoid that passes
    ``validate`` is a module (associativity and the unit laws), so
    nothing is validated again."""
    dims = [len(g.arrows_into(u)) for u in range(g.n_objects)]
    pos = {b: i for u in range(g.n_objects)
           for i, b in enumerate(g.arrows_into(u))}
    comp, one = g.comp, ring.one
    mats = []
    for a in range(g.n_arrows):
        ia, rows = g.inv[a], g.arrows_into(g.tgt[a])
        mats.append(Matrix._sparse(
            ring, len(rows), dims[g.src[a]],
            [((pos[comp[(ia, b)]], one),) for b in rows]))
    return SheafData(g, ring, ring, dims, mats)


def stalk_isotropy_module(S: SheafData, u: int) -> IsotropyModule:
    """The stalk at u as a module over the isotropy group."""
    G = isotropy(S.groupoid, u)
    mats = [S.arrow_mats[a] for a in G.arrow_ids]
    return IsotropyModule(G, S.ring, S.stalk_dims[u], mats,
                          matrix_ring=S.matrix_ring)


def simple_stalk(rho: Rep,
                 bound: int = DEFAULT_BOUND) -> IsotropyModule | None:
    """The stalk N at the smallest support object u if rho is simple,
    else None: by Morita, rho is simple iff its support is one orbit and
    N is simple over R[G_u].

    - Over F_p and Z/p, Norton's test (``proper_submodule``) on N's
      matrices read over F_p; only its fallback, when no word decides,
      enumerates, charged against `bound`.
    - Over Z/p^k, k >= 2, p N is a nonzero proper submodule of the free
      stalk N, so nothing is simple.
    - Over Z/n, n no prime power, a CRT idempotent e != 0, 1 is a
      central scalar that splits rho, so no simple module exists and
      none is disintegrated.
    - Over Q, with G_u = <g> cyclic of order n, N is simple iff
      Phi_d(N(g)) = 0 and deg Phi_d = dim N for some d | n (other groups
      raise UnsupportedRingError)."""
    MR = rho.matrix_ring
    if rho.dim == 0 or (MR.kind == "modular" and MR.residue_field() is None):
        return None
    S = sheaf_of(rho)
    supp = S.support()
    orbit_of = orbits(rho.groupoid).orbit_of
    if any(orbit_of[u] != orbit_of[supp[0]] for u in supp):
        return None
    N = stalk_isotropy_module(S, supp[0])
    if MR.size is not None:
        F = MR.residue_field() if MR.kind == "modular" else MR
        if F.modulus != MR.modulus:
            return None
        maps = [Matrix._sparse(F, N.dim, N.dim, M._nz)
                for M in N.action_mats()]
        return N if proper_submodule(maps, F, N.dim, bound) is None \
            else None
    gen, n = N.group.generator_if_cyclic(), N.group.order
    if gen is None:
        raise UnsupportedRingError("decided over Q for cyclic isotropy "
                                   "groups only")
    phis = [_cyclotomic(d) for d in range(1, n + 1) if n % d == 0]
    return N if any(len(phi) - 1 == N.dim
                    and poly_at(phi, N.mats[gen]).is_zero()
                    for phi in phis) else None


def is_simple(rho: Rep, bound: int = DEFAULT_BOUND) -> bool:
    """No invariant subspace other than zero and the whole space."""
    return simple_stalk(rho, bound) is not None


def gamma_c(S: SheafData) -> Rep:
    """Reassemble the module of global sections: an element f sends the
    section value at d(a) through the arrow matrix into the block at r(a),
    so each matrix's nonzero entries land in block (r(a), d(a))."""
    g = S.groupoid
    MR = S.matrix_ring
    offsets = []
    total = 0
    for u in range(g.n_objects):
        offsets.append(total)
        total += S.stalk_dims[u]
    mats = []
    for a in range(g.n_arrows):
        v, w = g.src[a], g.tgt[a]
        nz = [()] * total
        for i, row in enumerate(S.arrow_mats[a]._nz):
            nz[offsets[w] + i] = tuple([(offsets[v] + j, x) for j, x in row])
        mats.append(Matrix._sparse(MR, total, total, nz))
    return Rep(g, S.ring, total, mats, matrix_ring=MR)


def disintegration_iso(rho: Rep) -> Matrix:
    """The map m -> (unit_u m)_u in stalk coordinates, checked to be an
    invertible intertwiner onto the section module of sheaf_of(rho)."""
    S = sheaf_of(rho)
    sections = gamma_c(S)
    g, MR = rho.groupoid, rho.matrix_ring
    # Stalk coordinates of unit_u m are its entries at the pivots.
    rows = [rho.mats[g.unit_of[u]]._nz[p] for u in range(g.n_objects)
            for p in S.stalk_bases[u].pivots]
    T = Matrix._sparse(MR, len(rows), rho.dim, rows)
    if T.nrows != rho.dim:
        raise ConstructionError("stalk dimensions sum to %d, module has %d"
                                % (T.nrows, rho.dim))
    for a in range(rho.groupoid.n_arrows):
        if T * rho.mats[a] != sections.mats[a] * T:
            raise ConstructionError("disintegration does not intertwine "
                                    "arrow %d" % a)
    if not matrix_invertible(T):
        raise ConstructionError("disintegration map is not invertible")
    return T
