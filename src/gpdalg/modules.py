"""Finite-rank modules over groupoid algebras and group algebras.

A Rep assigns to every arrow a square matrix, multiplicatively on the
composition table and with the unit indicators summing to the identity.
The matrices live over ``matrix_ring``, which normally equals the
coefficient ring of the algebra.  Over Z/p^k a module killed by p is
carried with matrices over the residue field F_p instead, the scalar
action factoring through reduction mod p; annihilators are then lifted
back to the ambient ring.
"""

from __future__ import annotations

from .algebra import left_mult_matrix
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    GroupoidMismatchError,
    NonFreeQuotientError,
    RingMismatchError,
    UnsupportedRingError,
)
from .groupoid import FiniteGroupoid, IsotropyGroup, generating_arrows, orbits
from .ideals import Ideal
from .linalg import (
    DEFAULT_BOUND,
    Matrix,
    Subspace,
    canonical_rows,
    _one_per_line,
    closure,
    first_escape,
    invariant_lattice,
    mat_kernel,
    nonzero_vectors,
)
from .rings import RationalField, ScalarRing


class Rep:
    """Module over a groupoid algebra, one matrix per arrow."""

    __slots__ = ("groupoid", "ring", "matrix_ring", "dim", "mats")

    def __init__(self, groupoid: FiniteGroupoid, ring: ScalarRing, dim: int,
                 mats, matrix_ring: ScalarRing | None = None):
        matrix_ring = matrix_ring if matrix_ring is not None else ring
        mats = tuple(mats)
        if len(mats) != groupoid.n_arrows:
            raise DimensionMismatchError("need one matrix per arrow")
        for M in mats:
            if M.ring != matrix_ring or M.nrows != dim or M.ncols != dim:
                raise DimensionMismatchError("matrix of wrong shape or ring")
        self.groupoid = groupoid
        self.ring = ring
        self.matrix_ring = matrix_ring
        self.dim = dim
        self.mats = mats

    def action_mats(self):
        """The matrices of ``generating_arrows``: for a valid module,
        rho(ab) = rho(a) rho(b) makes them carry every invariance and
        intertwining condition."""
        return tuple(self.mats[a] for a in generating_arrows(self.groupoid))

    def __repr__(self):
        return "Rep(dim %d over %s)" % (self.dim, self.ring.spec_string())

    def to_json_dict(self) -> dict:
        d = {"ring": self.ring.spec_string(), "dim": self.dim,
             "matrices": [[str(x) for x in M.entries] for M in self.mats]}
        if self.matrix_ring != self.ring:
            d["matrix_ring"] = self.matrix_ring.spec_string()
        return d


class IsotropyModule(Rep):
    """Module over the group algebra of an isotropy group: a Rep of the
    group's one-object groupoid, ``mats[i]`` the action of element i."""

    __slots__ = ("group",)

    def __init__(self, group: IsotropyGroup, ring: ScalarRing, dim: int,
                 mats, matrix_ring: ScalarRing | None = None):
        Rep.__init__(self, group.groupoid, ring, dim, mats, matrix_ring)
        self.group = group

    def sort_key(self):
        return (self.dim, tuple(M.entries for M in self.mats))

    def __repr__(self):
        return "IsotropyModule(dim %d over %s, group order %d)" % (
            self.dim, self.ring.spec_string(), self.group.order)


def matrix_invertible(M: Matrix) -> bool:
    if M.nrows != M.ncols:
        return False
    can = canonical_rows(M.ring, M.rows(), M.ncols)
    return list(can) == Matrix.identity(M.ring, M.ncols).rows()


def rep_validate(rho: Rep) -> list[str]:
    """Multiplicativity on the composition table and unitarity.

    Checks rho(a) rho(b) = rho(ab) on the composable pairs and
    rho(e_u) rho(e_v) = 0 on distinct units, in (a, b) order.  Every
    other non-composable product then vanishes for free:
    rho(a) rho(b) = rho(a) rho(e_d(a)) rho(e_r(b)) rho(b) = 0, the outer
    factorisations being composable pairs.  That argument assumes a
    valid groupoid (``validate(g) == []``).  On a group these are the
    module axioms: rho(g) rho(g^-1) = rho(e) = 1 makes rho(g) invertible.
    """
    errs = []
    g = rho.groupoid
    MR = rho.matrix_ring
    zero = Matrix.zeros(MR, rho.dim, rho.dim)
    units = g.unit_of
    pairs = list(g.comp) + [(u, v) for u in units for v in units if u != v]
    for a, b in sorted(pairs):
        prod = rho.mats[a] * rho.mats[b]
        ab = g.comp.get((a, b))
        if ab is None:
            if prod != zero:
                errs.append("rho(e_%d) rho(e_%d) != 0 on non-composable pair"
                            % (a, b))
        elif prod != rho.mats[ab]:
            errs.append("rho(e_%d) rho(e_%d) != rho(e_%d%d)" % (a, b, a, b))
    total = Matrix.zeros(MR, rho.dim, rho.dim)
    for e in rho.groupoid.unit_of:
        total = total + rho.mats[e]
    if total != Matrix.identity(MR, rho.dim):
        errs.append("unit indicators do not sum to the identity")
    return errs


def regular_rep(g: FiniteGroupoid, ring: ScalarRing) -> Rep:
    """Left multiplication on the arrow basis."""
    mats = [left_mult_matrix(g, ring, a) for a in range(g.n_arrows)]
    return Rep(g, ring, g.n_arrows, mats)


def _residue_lift_space(ring: ScalarRing, residue: ScalarRing,
                        space: Subspace) -> Subspace:
    """Preimage in ring^n of a subspace of (ring/p)^n under reduction."""
    n = space.ambient_dim
    p = residue.modulus
    rows = list(space.basis)
    for i in range(n):
        e = [ring.zero] * n
        e[i] = ring.coerce(p)
        rows.append(tuple(e))
    return Subspace(ring, n, rows)


def annihilator(rho: Rep) -> Ideal:
    """Two-sided ideal of algebra elements acting as zero."""
    g = rho.groupoid
    MR = rho.matrix_ring
    m = g.n_arrows
    rows = []
    for i in range(rho.dim):
        for j in range(rho.dim):
            rows.append(tuple(rho.mats[a].at(i, j) for a in range(m)))
    if not rows:
        kern = Subspace.full(MR, m)
    else:
        kern = mat_kernel(Matrix.from_rows(MR, rows))
    if MR == rho.ring:
        space = kern
    else:
        space = _residue_lift_space(rho.ring, MR, kern)
    return Ideal(g, rho.ring, space, check=True)


def module_annihilator_space(N: IsotropyModule) -> Subspace:
    """Annihilator of N inside the group algebra, over the ambient ring."""
    return annihilator(N).space


def spin(module, seeds) -> Subspace:
    """Smallest action-invariant subspace containing the seed vectors."""
    return closure(module.action_mats(),
                   Subspace(module.matrix_ring, module.dim,
                            [tuple(v) for v in seeds]))


def is_invariant(module, space: Subspace) -> bool:
    return first_escape(module.action_mats(), space) is None


def is_simple(module, bound: int = DEFAULT_BOUND) -> bool:
    """No invariant subspace other than zero and the whole space.

    Finite coefficient rings are handled exhaustively: the spin of every
    nonzero vector must be everything, with ``nonzero_vectors`` charging
    the state space against `bound`; over a field one vector per line is
    spun, since c*v spins to the same subspace as v.  Over the rationals
    the support must lie in one orbit and the stalk N at its smallest
    object u must be simple over Q[G_u] (Morita).  For G_u = <g> cyclic
    of order n, x^n - 1 is the product of the Phi_d, d | n, irreducible
    over Q: N is simple iff Phi_d(rho(g)) = 0 and deg Phi_d = dim N for
    some d | n.  Other isotropy groups raise UnsupportedRingError.
    """
    MR = module.matrix_ring
    d = module.dim
    if d == 0:
        return False
    if MR.size is not None:
        full = Subspace.full(MR, d)
        return all(spin(module, [v]) == full
                   for v in _one_per_line(MR, nonzero_vectors(MR, d, bound)))
    from .sheaves import sheaf_of, stalk_isotropy_module

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
    return any(len(phi) - 1 == N.dim and _poly_at(phi, N.mats[gen]).is_zero()
               for phi in phis)


def hom_space(A, B) -> Subspace:
    """Intertwiners B <- A, flattened row-major into R^(dimB*dimA).  Loop
    groups at two objects can have equal one-object groupoids."""
    if A.groupoid != B.groupoid \
            or getattr(A, "group", None) != getattr(B, "group", None):
        raise GroupoidMismatchError("modules over different groupoids")
    if A.ring != B.ring:
        raise RingMismatchError("modules over different rings")
    if A.matrix_ring != B.matrix_ring:
        raise RingMismatchError("modules with different matrix rings")
    MR = A.matrix_ring
    d1, d2 = A.dim, B.dim
    nunk = d2 * d1
    rows = []
    for M1, M2 in zip(A.action_mats(), B.action_mats()):
        for i in range(d2):
            for j in range(d1):
                row = [MR.zero] * nunk
                for k in range(d1):
                    row[i * d1 + k] = MR.add(row[i * d1 + k], M1.at(k, j))
                for k in range(d2):
                    row[k * d1 + j] = MR.sub(row[k * d1 + j], M2.at(i, k))
                # The unit of a group acts as 1 on both sides: no condition.
                if any(x != MR.zero for x in row):
                    rows.append(tuple(row))
    if not rows:
        return Subspace.full(MR, nunk)
    return mat_kernel(Matrix.from_rows(MR, rows))


def is_isomorphic(A, B, bound: int = DEFAULT_BOUND) -> bool:
    """Whether some intertwiner A -> B is invertible.

    Over the rationals every module of a finite groupoid algebra is
    semisimple (Maschke), so A and B are isomorphic exactly when
    dim Hom(A, B) = dim End(A) = dim End(B).  Over finite coefficient
    rings every combination of the hom basis is tried, one per line over
    a field (c*T is invertible iff T is), with ``nonzero_vectors``
    charging the coefficient vectors against `bound`.
    """
    if A.dim != B.dim:
        return False
    if A.dim == 0:
        return True
    if A.matrix_ring != B.matrix_ring:
        return False
    H = hom_space(A, B)
    MR = A.matrix_ring
    if MR.size is None:
        return H.num_rows == hom_space(A, A).num_rows \
            == hom_space(B, B).num_rows
    d = A.dim
    for coeffs in _one_per_line(MR, nonzero_vectors(MR, H.num_rows, bound)):
        flat = [MR.zero] * (d * d)
        for c, b in zip(coeffs, H.basis):
            if c == MR.zero:
                continue
            for t in range(d * d):
                flat[t] = MR.add(flat[t], MR.mul(c, b[t]))
        if matrix_invertible(Matrix(MR, d, d, flat)):
            return True
    return False


def all_submodules(module, bound: int = DEFAULT_BOUND) -> list[Subspace]:
    """Every invariant subspace: cyclic spins closed under joins."""
    MR = module.matrix_ring
    if MR.size is None:
        raise UnsupportedRingError("submodule enumeration needs finite "
                                   "coefficients")
    return invariant_lattice(module.action_mats(), MR, module.dim, bound)


def maximal_submodules(module, bound: int = DEFAULT_BOUND) -> list[Subspace]:
    """The maximal proper invariant subspaces, largest element count
    first, then by least canonical basis."""
    full = Subspace.full(module.matrix_ring, module.dim)
    proper = [S for S in all_submodules(module, bound) if S != full]
    maximal = [S for S in proper
               if not any(T != S and T.contains_subspace(S) for T in proper)]
    maximal.sort(key=lambda s: (-s.element_count(), s.basis))
    return maximal


def maximal_submodule(module, bound: int = DEFAULT_BOUND) -> Subspace:
    """A maximal proper invariant subspace; zero when the module is simple.

    Deterministic tie-break: the first of ``maximal_submodules``.
    """
    if module.dim == 0:
        raise ConstructionError("the zero module has no maximal submodule")
    return maximal_submodules(module, bound)[0]


def rep_submodule(rho: Rep, space: Subspace) -> Rep:
    """The invariant subspace as a module in its own basis coordinates."""
    if not is_invariant(rho, space):
        raise ConstructionError("subspace is not invariant")
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


def rep_quotient(rho: Rep, space: Subspace) -> Rep:
    """Quotient by an invariant subspace, in complement coordinates.

    Needs the subspace basis to have unit pivots so the quotient is free;
    always true over a field.
    """
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


def quotient_algebra_rep(g: FiniteGroupoid, ring: ScalarRing,
                         ideal: Ideal) -> Rep:
    """Left action of the algebra on its quotient by the ideal."""
    if ideal.groupoid != g or ideal.ring != ring:
        raise GroupoidMismatchError("ideal of a different algebra")
    return rep_quotient(regular_rep(g, ring), ideal.space)


# ---------------------------------------------------------------------------
# standard modules over an isotropy group

def trivial_module(G: IsotropyGroup, ring: ScalarRing) -> IsotropyModule:
    one = Matrix.identity(ring, 1)
    return IsotropyModule(G, ring, 1, [one] * G.order)


def _cyclic_module(G: IsotropyGroup, gen: int, C: Matrix) -> IsotropyModule:
    """The module of the cyclic group G = <gen> in which gen acts by C."""
    mats = [None] * G.order
    x, P = G.identity, Matrix.identity(C.ring, C.nrows)
    for _ in range(G.order):
        mats[x] = P
        x = G.table[x][gen]
        P = P * C
    return IsotropyModule(G, C.ring, C.nrows, mats)


def sign_module(G: IsotropyGroup, ring: ScalarRing) -> IsotropyModule:
    """Generator of an even-order cyclic group acts by -1."""
    gen = G.generator_if_cyclic()
    if gen is None or G.order % 2 != 0:
        raise ConstructionError("sign module needs a cyclic group of even "
                                "order")
    return _cyclic_module(G, gen, Matrix(ring, 1, 1, [ring.neg(ring.one)]))


def regular_module(G: IsotropyGroup, ring: ScalarRing) -> IsotropyModule:
    return IsotropyModule(G, ring, G.order, regular_rep(G.groupoid, ring).mats)


# ---------------------------------------------------------------------------
# simple modules of a group algebra

def _poly_divmod_int(num, den):
    """Divide integer polynomials (low-first coefficients), den monic."""
    num = list(num)
    d = len(den) - 1
    q = [0] * max(len(num) - d, 1)
    while len(num) - 1 >= d and any(num):
        k = len(num) - 1 - d
        c = num[-1]
        q[k] = c
        for i, dc in enumerate(den):
            num[k + i] -= c * dc
        while num and num[-1] == 0:
            num.pop()
    return q, num


def _cyclotomic(d: int) -> list[int]:
    """Coefficients (low first) of the d-th cyclotomic polynomial."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod_int(poly, _cyclotomic(e))
            if any(rem):
                raise AssertionError("cyclotomic division left a remainder")
    return poly


def _poly_at(poly, X: Matrix) -> Matrix:
    """The integer polynomial (low-first coefficients) at X, by Horner."""
    R, d = X.ring, X.nrows
    P = Matrix.zeros(R, d, d)
    for c in reversed(poly):
        P = P * X + Matrix(R, d, d, [R.coerce(c) if i == j else R.zero
                                     for i in range(d) for j in range(d)])
    return P


def _companion(ring, poly) -> Matrix:
    d = len(poly) - 1
    ent = [ring.zero] * (d * d)
    for i in range(1, d):
        ent[i * d + (i - 1)] = ring.one
    for i in range(d):
        ent[i * d + (d - 1)] = ring.neg(ring.coerce(poly[i]))
    return Matrix(ring, d, d, ent)


def simple_modules_group(G: IsotropyGroup, ring: ScalarRing,
                         bound: int = DEFAULT_BOUND) -> list[IsotropyModule]:
    """All simple modules of the group algebra, up to isomorphism.

    Prime fields: split a composition series of ``regular_module``, whose
    factors are Reps of ``G.groupoid``; a top factor is new unless a
    simple found before has its dimension and a nonzero map from it
    (Schur's lemma makes that map an isomorphism).  Rationals: one simple,
    the companion module, per cyclotomic factor of x^n - 1 (cyclic groups).
    Z/p^k: the simples of the residue field group algebra, with scalars
    acting through reduction mod p.
    """
    if ring.kind == "modular":
        residue = ring.residue_field()
        if residue is None:
            raise UnsupportedRingError(
                "simple modules over Z/n need a prime power modulus")
        base = simple_modules_group(G, residue, bound=bound)
        return [IsotropyModule(G, ring, N.dim, N.mats, matrix_ring=residue)
                for N in base]

    if isinstance(ring, RationalField):
        gen = G.generator_if_cyclic()
        if gen is None:
            raise UnsupportedRingError(
                "rational simple modules implemented for cyclic groups only")
        n = G.order
        sims = [_cyclic_module(G, gen, _companion(ring, _cyclotomic(d)))
                for d in range(1, n + 1) if n % d == 0]
        sims.sort(key=lambda N: N.sort_key())
        return sims

    if not ring.is_field or ring.size is None:
        raise UnsupportedRingError("unsupported coefficient ring %s"
                                   % ring.spec_string())
    sims: list[Rep] = []
    stack = [regular_module(G, ring)]
    while stack:
        M = stack.pop()
        if M.dim == 0:
            continue
        N = maximal_submodule(M, bound)
        top = rep_quotient(M, N)
        if not any(S.dim == top.dim and hom_space(top, S).basis
                   for S in sims):
            sims.append(top)
        if not N.is_zero():
            stack.append(rep_submodule(M, N))
    out = [IsotropyModule(G, ring, S.dim, S.mats) for S in sims]
    out.sort(key=lambda N: N.sort_key())
    return out
