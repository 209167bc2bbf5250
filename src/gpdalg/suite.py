"""Verification suite: ideals as intersections of induced annihilators,
primitive ideals from a single inducer, and the match between the
induction enumeration and an oracle that reads the primitive ideals off
the composition factors of the regular module.

Every check returns a VerificationReport rather than asserting, with
verdict ``verified``, ``refuted`` or ``skipped`` (bound exceeded), and
canonical bases as witnesses either way.
"""

from __future__ import annotations

import time

from .errors import BoundExceededError, UnsupportedRingError
from .groupoid import FiniteGroupoid, isotropy, orbits
from .ideals import Ideal
from .linalg import Subspace, subspace_intersect
from .meataxe import irreducible_factors
from .modules import (
    DEFAULT_BOUND,
    IsotropyModule,
    Rep,
    _companion,
    _cyclic_module,
    annihilator,
    composition_factors,
    module_annihilator_space,
    regular_module,
    regular_rep,
    simple_modules_group,
)
from .induction import (
    induce,
    induced_annihilator_direct,
    induced_annihilator_from_space,
)
from .rings import ScalarRing
from .sheaves import is_simple, simple_stalk


class VerificationReport:
    __slots__ = ("check", "instance", "ring", "verdict", "reason",
                 "witnesses", "wall_time")

    def __init__(self, check, instance, ring, verdict, reason=None,
                 witnesses=None, wall_time=0.0):
        self.check = check
        self.instance = instance
        self.ring = ring
        self.verdict = verdict
        self.reason = reason
        self.witnesses = witnesses or {}
        self.wall_time = wall_time

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"

    def to_json_dict(self, include_timing: bool = False) -> dict:
        d = {"check": self.check, "instance": self.instance,
             "ring": self.ring, "verdict": self.verdict,
             "reason": self.reason, "witnesses": self.witnesses}
        if include_timing:
            d["wall_time"] = self.wall_time
        return d

    def __repr__(self):
        return "VerificationReport(%s on %s over %s: %s)" % (
            self.check, self.instance, self.ring, self.verdict)


def _report(check, instance, ring, t0, verdict, **fields):
    return VerificationReport(check, instance, ring.spec_string(), verdict,
                              wall_time=time.perf_counter() - t0, **fields)


def _basis_strs(space: Subspace) -> list:
    return [[str(x) for x in row] for row in space.basis]


def stalk_annihilator_space(g: FiniteGroupoid, ring: ScalarRing, I: Ideal,
                            u: int) -> Subspace:
    """Annihilator in the isotropy group algebra R[G_u] of the stalk at u
    of the quotient module A/I: it is the intersection of I with R[G_u].

    For x in R[G_u], x(e_u a + I) = x a + I, so x kills the stalk iff
    xA lies in I.  As A is unital and I two-sided, that holds iff
    x = x e_u lies in I.  That intersection is e_u I e_u, and e_u x e_u
    is x restricted to the loops at u, so the annihilator is spanned by
    the basis rows of I restricted to those loops (in ascending arrow
    id, the order ``isotropy`` uses), over any base ring."""
    loops = isotropy(g, u).arrow_ids
    return Subspace(ring, len(loops),
                    [[row[a] for a in loops] for row in I.space.basis])


def verify_ideal_is_intersection(
        g: FiniteGroupoid, ring: ScalarRing, I: Ideal,
        instance: str = "") -> VerificationReport:
    """Check that I equals the intersection, over orbit representatives,
    of the annihilators induced from the stalks of the quotient by I.

    Each stalk annihilator is the intersection of I with R[G_u]
    (``stalk_annihilator_space``), one route for every base ring; the
    quotient module is never built.  Agreement of the induced
    annihilator across each whole orbit is recorded too.
    """
    t0 = time.perf_counter()
    orb = orbits(g)
    per_object = {}
    for u in range(g.n_objects):
        ann = stalk_annihilator_space(g, ring, I, u)
        per_object[u] = induced_annihilator_from_space(g, ring, u, ann)
    meet = Subspace.full(ring, g.n_arrows)
    for u in orb.representatives:
        meet = subspace_intersect(meet, per_object[u].space)
    orbitwise_constant = all(
        per_object[u] == per_object[orb.representatives[orb.orbit_of[u]]]
        for u in range(g.n_objects))
    verdict = "verified" if meet == I.space and orbitwise_constant \
        else "refuted"
    witnesses = {
        "ideal": _basis_strs(I.space),
        "intersection": _basis_strs(meet),
        "induced_annihilators": {str(u): _basis_strs(per_object[u].space)
                                 for u in orb.representatives},
        "constant_on_orbits": orbitwise_constant,
    }
    return _report("ideal-intersection", instance, ring, t0, verdict,
                   witnesses=witnesses)


def verify_primitive_single_inducer(
        g: FiniteGroupoid, ring: ScalarRing, rho: Rep, instance: str = "",
        bound: int = DEFAULT_BOUND) -> VerificationReport:
    """For a simple module, check its annihilator equals the annihilator
    induced from the stalk at one support object (the smallest).

    One disintegration (``simple_stalk``) decides simplicity and yields
    the stalk N, the inducer object (N's base) and the support, the
    orbit of that object.  ``stalk_is_simple`` is recorded as true: by
    Morita equivalence the stalk of a simple module is simple.  Ann(rho)
    is compared as a space, unchecked: J is an ideal, so it is closed when
    they are equal, and the verdict is ``refuted`` when they are not."""
    t0 = time.perf_counter()
    try:
        N, reason = simple_stalk(rho, bound=bound), "module is not simple"
    except (BoundExceededError, UnsupportedRingError) as exc:
        N, reason = None, "simplicity check: %s" % exc
    if N is None:
        return _report("primitive-single", instance, ring, t0, "skipped",
                       reason=reason)
    ann = module_annihilator_space(rho)
    u = N.group.base
    J = induced_annihilator_direct(g, ring, u, N)
    verdict = "verified" if rho.groupoid == g and J.space == ann \
        else "refuted"
    witnesses = {
        "inducer_object": u,
        "support": list(orbits(rho.groupoid).orbit_containing(u)),
        "annihilator": _basis_strs(ann),
        "induced_annihilator": _basis_strs(J.space),
        "stalk_is_simple": True,
    }
    return _report("primitive-single", instance, ring, t0, verdict,
                   witnesses=witnesses)


def _primitive_classes(g: FiniteGroupoid, ring: ScalarRing, bound: int):
    """(u, N): one simple isotropy module N per isomorphism class, at each
    orbit representative u.  An annihilator depends only on the class, so
    no composition series is walked to choose a basis for N.

    Over F = F_p, or the residue field F_p of Z/p^k, a cyclic
    G_u = <gen> of order n has F[G_u] = F[x]/(x^n - 1), gen acting as x.
    That ring is commutative and its maximal ideals are the (f), f a
    monic irreducible factor of x^n - 1, so its simple modules are the
    fields F[x]/(f), gen acting by the companion matrix of f: one class
    per distinct factor, the Q branch of ``simple_modules_group`` with
    the factors over F_p in place of the cyclotomic polynomials.  A
    non-cyclic G_u takes its classes straight from the composition
    factors of the regular module, which every simple module is a
    quotient of.  Over Z/p^k each class is carried over F_p, the scalars
    acting through reduction mod p.  Over Q and composite Z/n the
    classes are ``simple_modules_group``'s."""
    F = ring if ring.kind == "prime_field" else \
        ring.residue_field() if ring.kind == "modular" else None
    for u in orbits(g).representatives:
        G = isotropy(g, u)
        if F is None:
            sims = simple_modules_group(G, ring, bound=bound)
        else:
            gen = G.generator_if_cyclic()
            if gen is None:
                sims = composition_factors(regular_module(G, F), bound)
            else:
                x_n_1 = [-1] + [0] * (G.order - 1) + [1]
                sims = [_cyclic_module(G, gen, _companion(F, f))
                        for f in irreducible_factors(x_n_1, F.modulus)]
            sims = [IsotropyModule(G, ring, N.dim, N.mats, matrix_ring=F)
                    for N in sims]
        for N in sims:
            yield u, N


def _distinct_sorted(ideals) -> list[Ideal]:
    return sorted(set(ideals),
                  key=lambda J: (len(J.space.basis), J.space.basis))


def enumerate_primitive_ideals(g: FiniteGroupoid, ring: ScalarRing,
                               bound: int = DEFAULT_BOUND) -> list[Ideal]:
    """Annihilators induced from the simple isotropy modules of one
    representative per orbit, deduplicated and sorted.

    The simples come one per isomorphism class from
    ``_primitive_classes``: over F_p and Z/p^k with cyclic isotropy they
    are the companion modules of the irreducible factors of x^n - 1 over
    F_p.  There `bound` is charged only by the MeatAxe's exhaustive
    fallback on a non-cyclic isotropy group."""
    return _distinct_sorted(induced_annihilator_direct(g, ring, u, N)
                            for u, N in _primitive_classes(g, ring, bound))


def primitive_ideal_oracle(g: FiniteGroupoid, ring: ScalarRing,
                           bound: int = DEFAULT_BOUND) -> list[Ideal]:
    """Primitive ideals from first principles: the annihilators of the
    composition factors of the regular module over a finite field, found
    by the MeatAxe.  Every simple module is a quotient of the algebra, so
    these are the annihilators of all simple modules.  Independent of the
    induction machinery."""
    if ring.kind != "prime_field":
        raise UnsupportedRingError("the oracle needs a finite field")
    return _distinct_sorted(annihilator(S) for S in
                            composition_factors(regular_rep(g, ring), bound))


def verify_primitive_ideals(
        g: FiniteGroupoid, ring: ScalarRing, instance: str = "",
        bound: int = DEFAULT_BOUND) -> VerificationReport:
    """Check the induction enumeration of primitive ideals.

    The enumeration reads one simple per isomorphism class from
    ``_primitive_classes`` (companion modules of the factors of x^n - 1
    over F_p for cyclic isotropy), as ``enumerate_primitive_ideals``
    does.  Over a finite field it must match the regular-module oracle
    exactly.  Otherwise each enumerated ideal is checked to be the
    annihilator of a simple induced module, compared as a relation space
    as in ``verify_primitive_single_inducer``.  `bound` is charged only
    where the MeatAxe falls back to an exhaustive search: for a
    non-cyclic isotropy group, in the oracle and in the simplicity
    checks.  A trip makes the verdict ``skipped``."""
    t0 = time.perf_counter()
    try:
        found = [(u, N, induced_annihilator_direct(g, ring, u, N))
                 for u, N in _primitive_classes(g, ring, bound)]
        prims = _distinct_sorted(J for _, _, J in found)
        witnesses = {"primitive_ideals": [_basis_strs(J.space)
                                          for J in prims]}
        if ring.kind == "prime_field":
            oracle = primitive_ideal_oracle(g, ring, bound=bound)
            witnesses["oracle_ideals"] = [_basis_strs(J.space)
                                          for J in oracle]
            ok = prims == oracle
        else:
            ok = True
            for u, N, J in found:
                rho = induce(g, ring, u, N)
                if not is_simple(rho, bound=bound):
                    ok = False
                if module_annihilator_space(rho) != J.space:
                    ok = False
    except BoundExceededError as exc:
        return _report("primitive-ideals", instance, ring, t0, "skipped",
                       reason=str(exc))
    return _report("primitive-ideals", instance, ring, t0,
                   "verified" if ok else "refuted", witnesses=witnesses)
