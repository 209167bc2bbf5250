"""Disintegration of a module into stalks and reassembly from them.

The unit indicators of a unitary module are orthogonal idempotents
summing to the identity, so the module splits into their images, the
stalks.  Each arrow restricts to an invertible map between the stalks at
its endpoints; loops make every stalk a module over the isotropy group.
The compactly supported sections of this bundle recover the module.
"""

from __future__ import annotations

from .errors import ConstructionError, NonFreeQuotientError
from .groupoid import FiniteGroupoid, isotropy
from .linalg import Matrix, Subspace, canonical_rows
from .modules import IsotropyModule, Rep, matrix_invertible, rep_validate
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
             "matrices": [[str(x) for x in M.entries]
                          for M in self.arrow_mats]}
        if self.matrix_ring != self.ring:
            d["matrix_ring"] = self.matrix_ring.spec_string()
        return d


def sheaf_validate(S: SheafData) -> list[str]:
    """Units act as identities, composition is respected, arrows invert."""
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


def _stalk_basis(rho: Rep, u: int) -> Subspace:
    """Canonical basis of the image of the unit idempotent at u."""
    P = rho.mats[rho.groupoid.unit_of[u]]
    rows = [P.col(j) for j in range(P.ncols)]
    basis = canonical_rows(rho.matrix_ring, rows, P.nrows)
    space = Subspace._trusted(rho.matrix_ring, P.nrows, basis)
    MR = rho.matrix_ring
    if any(b[p] != MR.one for b, p in zip(space.basis, space.pivots)):
        raise NonFreeQuotientError(
            "stalk at object %d is not free over %s"
            % (u, MR.spec_string()))
    return space


def sheaf_of(rho: Rep) -> SheafData:
    """Disintegrate a unitary module into its stalks."""
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


def stalk_isotropy_module(S: SheafData, u: int) -> IsotropyModule:
    """The stalk at u as a module over the isotropy group."""
    G = isotropy(S.groupoid, u)
    mats = [S.arrow_mats[a] for a in G.arrow_ids]
    return IsotropyModule(G, S.ring, S.stalk_dims[u], mats,
                          matrix_ring=S.matrix_ring)


def gamma_c(S: SheafData) -> Rep:
    """Reassemble the module of global sections: an element f sends the
    section value at d(a) through the arrow matrix into the block at r(a)."""
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
        ent = [MR.zero] * (total * total)
        B = S.arrow_mats[a]
        for i in range(S.stalk_dims[w]):
            for j in range(S.stalk_dims[v]):
                ent[(offsets[w] + i) * total + (offsets[v] + j)] = B.at(i, j)
        mats.append(Matrix(MR, total, total, ent))
    return Rep(g, S.ring, total, mats, matrix_ring=MR)


def disintegration_iso(rho: Rep) -> Matrix:
    """The map m -> (unit_u m)_u in stalk coordinates, checked to be an
    invertible intertwiner onto the section module of sheaf_of(rho)."""
    S = sheaf_of(rho)
    sections = gamma_c(S)
    MR = rho.matrix_ring
    rows = []
    for u in range(rho.groupoid.n_objects):
        base = S.stalk_bases[u]
        P = rho.mats[rho.groupoid.unit_of[u]]
        for p in base.pivots:
            rows.append(P.row(p))
    T = Matrix.from_rows(MR, rows) if rows else Matrix.zeros(MR, 0, rho.dim)
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
