import random

import pytest

import gpdalg.ideals
from gpdalg import (
    AlgebraElement,
    GroupoidMismatchError,
    RingMismatchError,
    disjoint_union,
    enumerate_all_ideals,
    full_ideal,
    ideal_from_generators,
    induced_annihilator_direct,
    induced_annihilator_from_space,
    isotropy,
    module_annihilator_space,
    pair_groupoid,
    regular_module,
    ring_from_spec,
    simple_modules_group,
    transversal,
    trivial_module,
)
from gpdalg.linalg import Subspace, closure, invariant_lattice

from conftest import (
    layout_pool,
    named_pool,
    reference_arrow_actions,
    reference_ideal_space,
    reference_induced_annihilator,
    reference_orbit_ideals,
    zg,
)

F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")


def _generator_sets(g, ring, arrows=None):
    """For each of `arrows` (by default every arrow) its indicator, and
    the sum of it and the next arrow with the same ends, which generates
    a proper ideal of R[G_u] when the isotropy group has order 4; then
    random combinations."""
    m = g.n_arrows
    rng = random.Random("%d/%s" % (m, ring.spec_string()))

    def e(*support):
        return tuple(ring.one if b in support else ring.zero
                     for b in range(m))

    sets = []
    for a in range(m) if arrows is None else arrows:
        par = g.arrows_from_to(g.src[a], g.tgt[a])
        sets += [[e(a)], [e(a, par[(par.index(a) + 1) % len(par)])]]
    for k in (1, 1, 2):
        sets.append([tuple(ring.coerce(rng.randrange(-1, 3))
                           for _ in range(m)) for _ in range(k)])
    return sets


@pytest.mark.parametrize("spec", ["fp:2", "fp:3", "zn:4"])
def test_enumerated_ideals_match_orbit_rows(spec):
    # Over Q there is nothing to enumerate.
    ring = ring_from_spec(spec)
    for name, g in layout_pool() + named_pool():
        assert enumerate_all_ideals(g, ring) \
            == reference_orbit_ideals(g, ring), name


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3", "zn:4"])
def test_induced_annihilators_match_reference_at_every_object(spec):
    # Over a finite ring every ideal of R[G_u] stands in for Ann(N), so
    # each layout of each block is reached with every J.
    ring = ring_from_spec(spec)
    cases = 0
    for name, g in layout_pool():
        for u in range(g.n_objects):
            G = isotropy(g, u)
            spaces = [module_annihilator_space(N) for N in
                      [trivial_module(G, ring), regular_module(G, ring)]
                      + simple_modules_group(G, ring)]
            if ring.size is not None:
                spaces += invariant_lattice(
                    reference_arrow_actions(G.groupoid, ring), ring,
                    G.order, 1 << 12)
            for ann in spaces:
                got = induced_annihilator_from_space(g, ring, u, ann)
                want = reference_induced_annihilator(g, ring, u, ann,
                                                     transversal(g, u))
                assert got.space == want.space, (name, u, ann.basis)
                cases += 1
    assert cases >= 4 * 6


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3", "zn:4"])
def test_generated_ideals_match_whole_algebra_spin(spec):
    # The spin of the generators under the arrow actions of the whole
    # algebra, in n_arrows dimensions.
    ring = ring_from_spec(spec)
    for name, g in layout_pool() + named_pool():
        actions = reference_arrow_actions(g, ring)
        for gens in _generator_sets(g, ring):
            assert ideal_from_generators(g, ring, gens).space == closure(
                actions, Subspace(ring, g.n_arrows, gens)), (name, gens)


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3", "zn:4"])
def test_generated_ideals_match_convolution_reference(spec):
    # The named pool is compared the same way in test_suite.py.
    ring = ring_from_spec(spec)
    for name, g in layout_pool():
        for gens in _generator_sets(g, ring, (0, g.n_arrows - 1)):
            assert ideal_from_generators(g, ring, gens).space \
                == reference_ideal_space(g, ring, gens), (name, gens)


def test_ideal_constructors_act_only_on_isotropy_algebras(monkeypatch):
    # Every ideal is built from ideals of the group algebras R[G_u], so no
    # constructor asks for the arrow actions of a multi-object groupoid.
    seen = []
    real = gpdalg.ideals._arrow_actions

    def recording(g, ring):
        seen.append(g)
        return real(g, ring)

    monkeypatch.setattr(gpdalg.ideals, "_arrow_actions", recording)
    built = 0
    for name, g in named_pool() + layout_pool():
        if g.n_objects == 1:
            continue
        for ring in (F2, ring_from_spec("q")):
            if ring.size is not None:
                built += len(enumerate_all_ideals(g, ring))
            for gens in _generator_sets(g, ring):
                ideal_from_generators(g, ring, gens)
                built += 1
            for u in range(g.n_objects):
                N = trivial_module(isotropy(g, u), ring)
                induced_annihilator_direct(g, ring, u, N)
                built += 1
    assert built and seen
    assert {h.n_objects for h in seen} == {1}


def test_foreign_algebra_elements_are_refused():
    g = zg(2)
    # Two one-arrow groupoids side by side: as many arrows as Z/2.
    h = disjoint_union(pair_groupoid(1), pair_groupoid(1))
    assert h.n_arrows == g.n_arrows and h != g
    I = full_ideal(g, F2)
    with pytest.raises(RingMismatchError):
        ideal_from_generators(g, F2, [AlgebraElement(g, F3, [2, 1])])
    with pytest.raises(GroupoidMismatchError):
        ideal_from_generators(g, F2, [AlgebraElement(h, F2, [1, 0])])
    with pytest.raises(RingMismatchError):
        I.contains(AlgebraElement(g, F3, [2, 1]))
    with pytest.raises(GroupoidMismatchError):
        I.contains(AlgebraElement(h, F2, [1, 0]))
    # Elements of the algebra itself, of an equal groupoid and plain
    # vectors are still taken.
    assert I.contains(AlgebraElement(zg(2), F2, [1, 1])) and I.contains([0, 1])
    assert ideal_from_generators(g, F2, [AlgebraElement(zg(2), F2, [1, 1])]) \
        == ideal_from_generators(g, F2, [(1, 1)])
