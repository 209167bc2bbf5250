"""Verification suite: ideals as intersections of induced annihilators,
primitive ideals from a single inducer, and the match between the
induction enumeration and an oracle that reads the primitive ideals off
the submodule lattice of the regular module.

Every check returns a VerificationReport rather than asserting, with
verdict ``verified``, ``refuted`` or ``skipped`` (bound exceeded), and
canonical bases as witnesses either way.
"""

from __future__ import annotations

import time

from .errors import BoundExceededError, UnsupportedRingError
from .groupoid import FiniteGroupoid, isotropy, orbits
from .ideals import Ideal
from .linalg import Matrix, Subspace, subspace_intersect, subspace_preimage
from .modules import (
    DEFAULT_BOUND,
    annihilator,
    is_simple,
    maximal_submodules,
    regular_rep,
    rep_quotient,
    simple_modules_group,
    Rep,
)
from .induction import (
    induce,
    induced_annihilator_direct,
    induced_annihilator_from_space,
)
from .rings import ScalarRing
from .sheaves import sheaf_of, stalk_isotropy_module


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


def _basis_strs(space: Subspace) -> list:
    return [[str(x) for x in row] for row in space.basis]


def stalk_annihilator_space(g: FiniteGroupoid, ring: ScalarRing, I: Ideal,
                            u: int) -> Subspace:
    """Annihilator in the isotropy group algebra R[G_u] of the stalk at u
    of the quotient module A/I: it is the intersection of I with R[G_u].

    For x in R[G_u], x(e_u a + I) = x a + I, so x kills the stalk iff
    xA lies in I.  As A is unital and I two-sided, that holds iff
    x = x e_u lies in I.  So the annihilator is the preimage of I under
    the inclusion of R[G_u] into A (loops in ascending arrow id, the
    order ``isotropy`` uses), over any base ring."""
    G = isotropy(g, u)
    k = G.order
    ent = [ring.zero] * (g.n_arrows * k)
    for j, loop in enumerate(G.arrow_ids):
        ent[loop * k + j] = ring.one
    return subspace_preimage(Matrix(ring, g.n_arrows, k, ent), I.space)


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
    return VerificationReport("ideal-intersection", instance,
                              ring.spec_string(), verdict,
                              witnesses=witnesses,
                              wall_time=time.perf_counter() - t0)


def verify_primitive_single_inducer(
        g: FiniteGroupoid, ring: ScalarRing, rho: Rep, instance: str = "",
        bound: int = DEFAULT_BOUND) -> VerificationReport:
    """For a simple module, check its annihilator equals the annihilator
    induced from the stalk at one support object (the smallest).

    Whether the chosen stalk is itself simple over its isotropy group is
    recorded as information only, never asserted."""
    t0 = time.perf_counter()
    try:
        simple = is_simple(rho, bound=bound)
    except (BoundExceededError, UnsupportedRingError) as exc:
        return VerificationReport("primitive-single", instance,
                                  ring.spec_string(), "skipped",
                                  reason="simplicity check: %s" % exc,
                                  wall_time=time.perf_counter() - t0)
    if not simple:
        return VerificationReport("primitive-single", instance,
                                  ring.spec_string(), "skipped",
                                  reason="module is not simple",
                                  wall_time=time.perf_counter() - t0)
    I = annihilator(rho)
    S = sheaf_of(rho)
    supp = S.support()
    u = supp[0]
    N = stalk_isotropy_module(S, u)
    J = induced_annihilator_direct(g, ring, u, N)
    stalk_simple = None
    try:
        stalk_simple = is_simple(N, bound=bound)
    except (BoundExceededError, UnsupportedRingError):
        pass
    verdict = "verified" if J == I else "refuted"
    witnesses = {
        "inducer_object": u,
        "support": list(supp),
        "annihilator": _basis_strs(I.space),
        "induced_annihilator": _basis_strs(J.space),
        "stalk_is_simple": stalk_simple,
    }
    return VerificationReport("primitive-single", instance,
                              ring.spec_string(), verdict,
                              witnesses=witnesses,
                              wall_time=time.perf_counter() - t0)


def _induced_simples(g: FiniteGroupoid, ring: ScalarRing, bound: int):
    """(u, N, induced annihilator) for each simple isotropy module N at
    each orbit representative u."""
    for u in orbits(g).representatives:
        for N in simple_modules_group(isotropy(g, u), ring, bound=bound):
            yield u, N, induced_annihilator_direct(g, ring, u, N)


def _distinct_sorted(ideals) -> list[Ideal]:
    out = []
    for J in ideals:
        if not any(J == K for K in out):
            out.append(J)
    out.sort(key=lambda J: (len(J.space.basis), J.space.basis))
    return out


def enumerate_primitive_ideals(g: FiniteGroupoid, ring: ScalarRing,
                               bound: int = DEFAULT_BOUND) -> list[Ideal]:
    """Annihilators induced from the simple isotropy modules of one
    representative per orbit, deduplicated and sorted."""
    return _distinct_sorted(J for _, _, J in _induced_simples(g, ring, bound))


def primitive_ideal_oracle(g: FiniteGroupoid, ring: ScalarRing,
                           bound: int = DEFAULT_BOUND) -> list[Ideal]:
    """Primitive ideals from first principles: annihilators of the simple
    quotients of the regular module, read off its maximal submodules in
    the submodule lattice over a finite field.  Independent of the
    induction machinery."""
    if not ring.is_field or ring.size is None:
        raise UnsupportedRingError("the oracle needs a finite field")
    reg = regular_rep(g, ring)
    return _distinct_sorted(annihilator(rep_quotient(reg, N))
                            for N in maximal_submodules(reg, bound))


def verify_primitive_ideals(
        g: FiniteGroupoid, ring: ScalarRing, instance: str = "",
        bound: int = DEFAULT_BOUND) -> VerificationReport:
    """Check the induction enumeration of primitive ideals.

    Over a finite field the enumeration must match the regular-module
    oracle exactly.  Otherwise each enumerated ideal is checked to be the
    annihilator of a simple induced module."""
    t0 = time.perf_counter()
    try:
        found = list(_induced_simples(g, ring, bound))
        prims = _distinct_sorted(J for _, _, J in found)
        witnesses = {"primitive_ideals": [_basis_strs(J.space)
                                          for J in prims]}
        if ring.is_field and ring.size is not None:
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
                if annihilator(rho) != J:
                    ok = False
    except BoundExceededError as exc:
        return VerificationReport("primitive-ideals", instance,
                                  ring.spec_string(), "skipped",
                                  reason=str(exc),
                                  wall_time=time.perf_counter() - t0)
    verdict = "verified" if ok else "refuted"
    return VerificationReport("primitive-ideals", instance,
                              ring.spec_string(), verdict,
                              witnesses=witnesses,
                              wall_time=time.perf_counter() - t0)
