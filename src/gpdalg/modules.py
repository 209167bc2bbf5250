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
from .groupoid import (FiniteGroupoid, IsotropyGroup, functor_breaks,
                       generating_arrows)
from .ideals import Ideal
from .linalg import (
    DEFAULT_BOUND,
    Matrix,
    Subspace,
    _pairs,
    canonical_rows,
    closure,
    first_escape,
    invariant_lattice,
    left_kernel,
    mat_kernel,
    restrict,
    span_vectors,
)
from .meataxe import proper_submodule
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
             "matrices": [M.entry_strings() for M in self.mats]}
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
    """Multiplicativity on the generating arrows and unitarity.

    The pairs ``functor_breaks`` finds, then rho(e_u) rho(e_v) = 0 on
    distinct units, then that the units sum to the identity.  When all
    hold, every non-composable product vanishes too:
    rho(a) rho(b) = rho(a) rho(e_d(a)) rho(e_r(b)) rho(b) = 0.  On a
    group these are the module axioms: rho(g) rho(g^-1) = rho(e) = 1
    makes rho(g) invertible.
    """
    g = rho.groupoid
    MR = rho.matrix_ring
    errs = ["rho(e_%d) rho(e_%d) != rho(e_%d%d)" % (s, b, s, b)
            for s, b in functor_breaks(g, rho.mats)]
    units = g.unit_of
    errs += ["rho(e_%d) rho(e_%d) != 0 on non-composable pair" % (u, v)
             for u in units for v in units
             if u != v and not (rho.mats[u] * rho.mats[v]).is_zero()]
    if sum((rho.mats[e] for e in units), Matrix.zeros(MR, rho.dim, rho.dim)) \
            != Matrix.identity(MR, rho.dim):
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


def module_annihilator_space(rho: Rep) -> Subspace:
    """The relations among the arrow matrices, each read as one row of
    its entries, lifted through the residue field when the matrices live
    there: the annihilator as a subspace over the ambient ring,
    unchecked."""
    MR, d = rho.matrix_ring, rho.dim
    flat = [tuple([(i * d + j, x) for i, row in enumerate(M._nz)
                   for j, x in row]) for M in rho.mats]
    kern = left_kernel(Matrix._sparse(MR, len(rho.mats), d * d, flat))
    if MR == rho.ring:
        return kern
    return _residue_lift_space(rho.ring, MR, kern)


def annihilator(rho: Rep) -> Ideal:
    """Two-sided ideal of algebra elements acting as zero: the module
    annihilator space, checked to be closed on both sides."""
    return Ideal(rho.groupoid, rho.ring, module_annihilator_space(rho),
                 check=True)


def spin(module, seeds) -> Subspace:
    """Smallest action-invariant subspace containing the seed vectors."""
    return closure(module.action_mats(),
                   Subspace(module.matrix_ring, module.dim,
                            [tuple(v) for v in seeds]))


def is_invariant(module, space: Subspace) -> bool:
    return first_escape(module.action_mats(), space) is None


def _check_same_algebra(A, B):
    """Loop groups at two objects can have equal one-object groupoids."""
    if A.groupoid != B.groupoid \
            or getattr(A, "group", None) != getattr(B, "group", None):
        raise GroupoidMismatchError("modules over different groupoids")
    if A.ring != B.ring:
        raise RingMismatchError("modules over different rings")


def hom_space(A, B) -> Subspace:
    """Intertwiners B <- A, flattened row-major into R^(dimB*dimA)."""
    _check_same_algebra(A, B)
    if A.matrix_ring != B.matrix_ring:
        raise RingMismatchError("modules with different matrix rings")
    return _intertwiners(A, B)


def _intertwiners(A, B) -> Subspace:
    """``hom_space`` without its checks.  One condition T M1 = M2 T per
    generating arrow and entry (i, j), its row read off the nonzero
    entries of column j of M1 and row i of M2."""
    MR = A.matrix_ring
    d1, d2 = A.dim, B.dim
    rows = []
    for M1, M2 in zip(A.action_mats(), B.action_mats()):
        cols1 = M1.transpose()._nz
        rows2 = M2._nz
        for i in range(d2):
            for j in range(d1):
                row = {i * d1 + k: x for k, x in cols1[j]}
                for k, x in rows2[i]:
                    t = k * d1 + j
                    row[t] = row.get(t, MR.zero) - x
                # The unit of a group acts as 1 on both sides: no condition.
                row = _pairs(row, MR.modulus)
                if row:
                    rows.append(row)
    # With no condition, the kernel of the 0-row system is everything.
    return mat_kernel(Matrix._sparse(MR, len(rows), d2 * d1, rows))


def is_isomorphic(A, B, bound: int = DEFAULT_BOUND) -> bool:
    """Whether some intertwiner A -> B is invertible.

    Over the rationals every module of a finite groupoid algebra is
    semisimple (Maschke), so A and B are isomorphic exactly when
    dim Hom(A, B) = dim End(A) = dim End(B).  Over finite coefficient
    rings every combination of the hom basis from ``span_vectors`` is
    tried (up to units: u*T is invertible iff T is), the
    coefficient vectors charged against `bound`.  Different algebras
    raise as in ``hom_space``, different matrix rings give False.
    """
    _check_same_algebra(A, B)
    if A.dim != B.dim:
        return False
    if A.dim == 0:
        return True
    if A.matrix_ring != B.matrix_ring:
        return False
    H = _intertwiners(A, B)
    MR = A.matrix_ring
    if MR.size is None:
        return H.num_rows == _intertwiners(A, A).num_rows \
            == _intertwiners(B, B).num_rows
    return any(matrix_invertible(Matrix._trusted(MR, A.dim, A.dim, flat))
               for flat in span_vectors(MR, H.basis, bound))


def all_submodules(module, bound: int = DEFAULT_BOUND) -> list[Subspace]:
    """Every invariant subspace: cyclic spins closed under joins."""
    MR = module.matrix_ring
    if MR.size is None:
        raise UnsupportedRingError("submodule enumeration needs finite "
                                   "coefficients")
    return invariant_lattice(module.action_mats(), MR, module.dim, bound)


def composition_factors(module, bound: int = DEFAULT_BOUND) -> list[Rep]:
    """One simple module per isomorphism class of composition factor, in
    the order found (finite fields only).  The MeatAxe
    (``proper_submodule``) splits each piece into a submodule and a
    quotient until every piece is simple; by Schur's lemma two simples
    are isomorphic iff they have equal dimension and a nonzero map."""
    F = module.matrix_ring
    if F.kind != "prime_field":
        raise UnsupportedRingError("composition factors need a finite "
                                   "field, not %s" % F.spec_string())
    found: list[Rep] = []
    stack = [module]
    while stack:
        M = stack.pop()
        if M.dim == 0:
            continue
        U = proper_submodule(M.action_mats(), F, M.dim, bound)
        if U is not None:
            stack.extend((rep_quotient(M, U), rep_submodule(M, U)))
        elif not any(S.dim == M.dim and _intertwiners(M, S).basis
                     for S in found):
            found.append(M)
    return found


def _kernels(M, S, bound: int) -> set[Subspace]:
    """The kernels of the nonzero maps M -> S, S simple: one map per line
    of Hom(M, S), the coefficient vectors charged against `bound`.  When
    dim S = dim M every nonzero map is an isomorphism."""
    H = _intertwiners(M, S)
    F = M.matrix_ring
    if not H.basis:
        return set()
    if S.dim == M.dim:
        return {Subspace.zero(F, M.dim)}
    return {mat_kernel(Matrix._trusted(F, S.dim, M.dim, flat))
            for flat in span_vectors(F, H.basis, bound)}


def _first_maximal(M, simples, bound: int) -> tuple:
    """(N, i): the first of ``maximal_submodules(M)`` and the index in
    `simples` of M/N, the simples covering every simple quotient of M.
    The first maximal submodules have the largest element count, so M/N
    has the least dimension among M's simple quotients; among the
    kernels of the maps onto the simples of that dimension the least
    canonical basis wins."""
    best = None
    for i in sorted(range(len(simples)), key=lambda i: simples[i].dim):
        if best is not None and simples[i].dim > simples[best[1]].dim:
            break
        for N in _kernels(M, simples[i], bound):
            if best is None or N.basis < best[0].basis:
                best = (N, i)
    return best


def maximal_submodules(module, bound: int = DEFAULT_BOUND) -> list[Subspace]:
    """The maximal proper invariant subspaces, largest element count
    first, then by least canonical basis.

    Over a finite field these are the kernels of the nonzero maps onto
    the composition factors; over Z/n they are read off the submodule
    lattice."""
    if module.matrix_ring.kind == "prime_field":
        found = set()
        for S in composition_factors(module, bound):
            found |= _kernels(module, S, bound)
        maximal = list(found)
    else:
        full = Subspace.full(module.matrix_ring, module.dim)
        proper = [S for S in all_submodules(module, bound) if S != full]
        maximal = [S for S in proper
                   if not any(T != S and T.contains_subspace(S)
                              for T in proper)]
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
    """The invariant subspace as a module in its own basis coordinates,
    each arrow ``restrict``-ed to it; needs unit pivots (as over a field).
    """
    if not space.has_unit_pivots():
        raise NonFreeQuotientError("basis has non-unit pivots")
    if not is_invariant(rho, space):
        raise ConstructionError("subspace is not invariant")
    return Rep(rho.groupoid, rho.ring, space.num_rows,
               [restrict(M, space, space) for M in rho.mats],
               matrix_ring=rho.matrix_ring)


def rep_quotient(rho: Rep, space: Subspace) -> Rep:
    """Quotient by an invariant subspace: each arrow followed by reduction
    modulo it (``Subspace.reducer``), ``restrict``-ed to the span C of
    the unit vectors at the non-pivot columns.  Needs unit pivots so the
    quotient is free; always true over a field."""
    MR = rho.matrix_ring
    if not space.has_unit_pivots():
        raise NonFreeQuotientError("quotient by a non-unit-pivot subspace")
    if not is_invariant(rho, space):
        raise ConstructionError("subspace is not invariant")
    piv = set(space.pivots)
    C = Subspace._trusted(MR, rho.dim,
                          [e for j, e in enumerate(Matrix.identity(
                              MR, rho.dim).rows()) if j not in piv])
    P = space.reducer()
    return Rep(rho.groupoid, rho.ring, C.num_rows,
               [restrict(P * M, C, C) for M in rho.mats], matrix_ring=MR)


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
    """The module of the cyclic group G = <gen> in which gen acts by C:
    gen^k by C^(k mod e), the powers stopping at C^e = I or |G| of them."""
    powers, P = [Matrix.identity(C.ring, C.nrows)], C
    while P != powers[0] and len(powers) < G.order:
        powers.append(P)
        P = P * C
    mats, x = [None] * G.order, G.identity
    for k in range(G.order):
        mats[x], x = powers[k % len(powers)], G.table[x][gen]
    return IsotropyModule(G, C.ring, C.nrows, mats)


def sign_module(G: IsotropyGroup, ring: ScalarRing) -> IsotropyModule:
    """Generator of an even-order cyclic group acts by -1."""
    gen = G.generator_if_cyclic()
    if gen is None or G.order % 2 != 0:
        raise ConstructionError("sign module needs a cyclic group of even "
                                "order")
    return _cyclic_module(G, gen,
                          Matrix._trusted(ring, 1, 1, [ring.coerce(-1)]))


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


def _companion(ring, poly) -> Matrix:
    d = len(poly) - 1
    ent = [ring.zero] * (d * d)
    for i in range(1, d):
        ent[i * d + (i - 1)] = ring.one
    for i in range(d):
        ent[i * d + (d - 1)] = ring.coerce(-poly[i])
    return Matrix._trusted(ring, d, d, ent)


def simple_modules_group(G: IsotropyGroup, ring: ScalarRing,
                         bound: int = DEFAULT_BOUND) -> list[IsotropyModule]:
    """All simple modules of the group algebra, up to isomorphism.

    Prime fields: split a composition series of ``regular_module``, each
    step taking the first maximal submodule (``maximal_submodules``
    order), found among the kernels of maps onto the regular module's
    composition factors, which every submodule's simple quotients are;
    a top factor is new unless an earlier top is a quotient by a map
    onto the same composition factor.  Rationals: one simple,
    the companion module, per cyclotomic factor of x^n - 1 (cyclic groups).
    Z/p^k: the simples of the residue field group algebra, with scalars
    acting through reduction mod p.

    Over F_p a cyclic group has F_p[G] = F_p[x]/(x^n - 1), so its classes
    are also the companion modules of the irreducible factors of
    x^n - 1, which is how the primitive-ideal verbs read them
    (``suite._primitive_classes``): an annihilator depends only on the
    class.  The walk stays here because these bases are printed
    (``compute simple-modules``, ``--module simple:k``) and their sort
    order names the ``primitive-single`` reports; a companion matrix
    differs from the walk's basis for some simples of dimension above 1.
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

    if ring.kind != "prime_field":
        raise UnsupportedRingError("unsupported coefficient ring %s"
                                   % ring.spec_string())
    reg = regular_module(G, ring)
    simples = composition_factors(reg, bound)
    tops = {}
    M = reg
    # Every composition factor tops some step; later steps add nothing.
    while len(tops) < len(simples):
        N, i = _first_maximal(M, simples, bound)
        if i not in tops:
            tops[i] = rep_quotient(M, N)
        M = rep_submodule(M, N)
    out = [IsotropyModule(G, ring, S.dim, S.mats) for S in tops.values()]
    out.sort(key=lambda N: N.sort_key())
    return out
