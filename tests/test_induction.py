from itertools import product

import pytest

from gpdalg import (
    ConstructionError,
    GroupoidMismatchError,
    Matrix,
    NotAnIdealError,
    Subspace,
    action_groupoid,
    annihilator,
    cyclic_table,
    disjoint_union,
    ideal_equal,
    induce,
    induced_annihilator_direct,
    induced_annihilator_from_space,
    is_isomorphic,
    is_simple,
    isotropy,
    module_annihilator_space,
    orbits,
    pair_groupoid,
    regular_module,
    rep_validate,
    ring_from_spec,
    sign_module,
    simple_modules_group,
    transversal,
    trivial_module,
)

from gpdalg.groupoid import orbit_blocks
from gpdalg.ideals import _closed_two_sided

from conftest import (
    named_pool,
    reference_induce,
    reference_induced_annihilator,
    swap3,
    zg,
)

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")
Z4 = ring_from_spec("zn:4")
Z8 = ring_from_spec("zn:8")


def z4_on_two_points():
    """z4 acting on two points through its z2 quotient: two arrows per
    pair of objects, isotropy of order 2 at both."""
    return action_groupoid(cyclic_table(4),
                           [(0, 1), (1, 0), (0, 1), (1, 0)])


def test_default_transversal_properties():
    for name, g in named_pool():
        for u in orbits(g).representatives:
            T = transversal(g, u)
            assert list(T) == list(orbits(g).orbit_containing(u))
            assert T[u] == g.unit(u)
            for v, a in T.items():
                assert g.d(a) == u and g.r(a) == v


def test_orbit_blocks_lay_each_orbit_arrow_once():
    # The block of (v, w) holds the arrows v -> w, its i-th arrow
    # conjugating back to the i-th loop at u; the blocks cover the orbit.
    for name, g in named_pool():
        for u in range(g.n_objects):
            T = transversal(g, u)
            loops = isotropy(g, u).arrow_ids
            blocks = orbit_blocks(g, u)
            assert len(blocks) == len(T) ** 2, name
            for (v, w), block in zip(product(T, T), blocks):
                assert set(block) == set(g.arrows_from_to(v, w)), name
                assert tuple(g.comp[(g.inv[T[w]], g.comp[(a, T[v])])]
                             for a in block) == loops, name
            assert sorted(a for b in blocks for a in b) == [
                a for a in range(g.n_arrows) if g.d(a) in T], name


def test_induce_trivial_on_pair_is_matrix_units():
    g = pair_groupoid(3)
    rho = induce(g, Q, 0, trivial_module(isotropy(g, 0), Q))
    assert rho.dim == 3
    for a in range(g.n_arrows):
        expected = Matrix.zeros(Q, 3, 3).to_lists()
        expected[g.r(a)][g.d(a)] = 1
        assert rho.mats[a].to_lists() == expected
    assert rep_validate(rho) == []


def test_induce_sign_at_fixed_point_frozen():
    g = swap3()
    G = isotropy(g, 2)
    rho = induce(g, Q, 2, sign_module(G, Q))
    assert rho.dim == 1
    loop = [a for a in g.loops_at(2) if a != g.unit(2)][0]
    assert rho.mats[loop].to_lists() == [[-1]]
    assert rho.mats[g.unit(2)].to_lists() == [[1]]
    # arrows of the other orbit act as zero
    assert rho.mats[g.unit(0)].is_zero()


def test_column_module_is_faithful():
    for n in (1, 2, 3):
        g = pair_groupoid(n)
        for ring in (Q, F2, Z4):
            J = induced_annihilator_direct(g, ring, 0,
                                           trivial_module(isotropy(g, 0),
                                                          ring))
            assert J.is_zero()


def test_induced_annihilator_frozen_union():
    g = disjoint_union(zg(2), pair_groupoid(1))
    J = induced_annihilator_direct(g, Q, 0,
                                   trivial_module(isotropy(g, 0), Q))
    assert J.basis == ((1, -1, 0), (0, 0, 1))
    # inducing the sign module flips the first relation
    J2 = induced_annihilator_direct(g, Q, 0,
                                    sign_module(isotropy(g, 0), Q))
    assert J2.basis == ((1, 1, 0), (0, 0, 1))


def test_direct_equals_annihilator_of_induced():
    cases = 0
    for name, g in named_pool()[:9]:
        orb = orbits(g)
        for ring in (Q, F2, Z4):
            for u in orb.representatives:
                G = isotropy(g, u)
                mods = [trivial_module(G, ring)]
                if G.order % 2 == 0 and G.generator_if_cyclic() is not None:
                    mods.append(sign_module(G, ring))
                for N in mods:
                    direct = induced_annihilator_direct(g, ring, u, N)
                    built = annihilator(induce(g, ring, u, N))
                    assert ideal_equal(direct, built), (name, u)
                    cases += 1
    assert cases >= 30


def test_annihilator_does_not_depend_on_transversal():
    g = z4_on_two_points()
    u = 0
    G = isotropy(g, u)
    assert G.order == 2
    default = transversal(g, u)
    candidates = [a for a in g.arrows_from_to(u, 1)]
    assert len(candidates) == 2
    T2 = dict(default)
    T2[1] = candidates[1] if default[1] == candidates[0] else candidates[0]
    for ring in (Q, F3, Z4):
        N = sign_module(G, ring)
        a1 = induced_annihilator_direct(g, ring, u, N)
        a2 = reference_induced_annihilator(g, ring, u,
                                           module_annihilator_space(N), T2)
        assert ideal_equal(a1, a2)
        r1 = induce(g, ring, u, N)
        r2 = reference_induce(g, ring, u, N, T2)
        assert r1.to_json_dict() != r2.to_json_dict()
        assert is_isomorphic(r1, r2)


def test_same_orbit_same_induced_ideal():
    g = swap3()
    for ring in (Q, F2, F3):
        i0 = induced_annihilator_direct(g, ring, 0,
                                        trivial_module(isotropy(g, 0), ring))
        i1 = induced_annihilator_direct(g, ring, 1,
                                        trivial_module(isotropy(g, 1), ring))
        assert ideal_equal(i0, i1)


def test_induced_from_simple_is_simple():
    for ring in (F2, F3):
        for name, g in (("swap3", swap3()), ("pair:2", pair_groupoid(2)),
                        ("z:4", zg(4))):
            for u in orbits(g).representatives:
                for N in simple_modules_group(isotropy(g, u), ring):
                    rho = induce(g, ring, u, N)
                    assert is_simple(rho), (name, u)


@pytest.mark.parametrize("spec", ("q", "fp:3", "zn:4", "zn:9"))
def test_annihilators_of_induced_simples_are_closed(spec):
    # The primitive-ideal verdicts compare Ann(Ind N) with the induced
    # ideal as spaces and do not check its closure on the whole algebra;
    # that closure is checked here, on every induced simple of the pool.
    ring = ring_from_spec(spec)
    checked = 0
    for name, g in named_pool():
        for u in orbits(g).representatives:
            for N in simple_modules_group(isotropy(g, u), ring):
                space = module_annihilator_space(induce(g, ring, u, N))
                assert _closed_two_sided(g, ring, space) is None, (name, u)
                assert space \
                    == induced_annihilator_direct(g, ring, u, N).space
                checked += 1
    assert checked >= len(named_pool())


def test_distinct_orbits_give_nonisomorphic_induced():
    g = swap3()
    for ring in (Q, F2, F3):
        G0, G2 = isotropy(g, 0), isotropy(g, 2)
        r0 = induce(g, ring, 0, trivial_module(G0, ring))
        r2 = induce(g, ring, 2, trivial_module(G2, ring))
        assert not is_isomorphic(r0, r2)
    h = disjoint_union(zg(2), pair_groupoid(1))
    for ring in (Q, F2):
        r0 = induce(h, ring, 0, trivial_module(isotropy(h, 0), ring))
        r1 = induce(h, ring, 1, trivial_module(isotropy(h, 1), ring))
        assert not is_isomorphic(r0, r1)


def test_residue_module_induction_over_zn4():
    g = z4_on_two_points()
    G = isotropy(g, 0)
    sims = simple_modules_group(G, Z4)
    assert len(sims) == 1
    rho = induce(g, Z4, 0, sims[0])
    assert rho.matrix_ring == F2
    built = annihilator(rho)
    direct = induced_annihilator_direct(g, Z4, 0, sims[0])
    assert ideal_equal(built, direct)
    assert built.contains([2, 0, 0, 0, 0, 0, 0, 0])


def test_induce_rejects_mismatches():
    g = swap3()
    N_wrong_group = trivial_module(isotropy(g, 0), Q)
    with pytest.raises(GroupoidMismatchError):
        induce(g, Q, 2, N_wrong_group)
    N_wrong_ring = trivial_module(isotropy(g, 2), F2)
    with pytest.raises(GroupoidMismatchError):
        induce(g, Q, 2, N_wrong_ring)


def test_annihilator_from_space_rejects_bad_input():
    # The ideals of F_2[Z/2] are 0, (1 + t) and F_2[Z/2]; span{(1, 0)} is none.
    for g, u in ((zg(2), 0), (swap3(), 2)):
        assert isotropy(g, u).order == 2
        not_ideal = Subspace(F2, 2, [(1, 0)])
        with pytest.raises(NotAnIdealError):
            induced_annihilator_from_space(g, F2, u, not_ideal)
        with pytest.raises(ConstructionError):
            induced_annihilator_from_space(g, F3, u, Subspace(F2, 2, []))
        with pytest.raises(ConstructionError):
            induced_annihilator_from_space(g, F2, u, Subspace(F2, 3, []))


def test_induce_and_annihilator_match_reference():
    cases = 0
    for name, g in named_pool():
        for ring in (Q, F2, F3, Z4, Z8):
            for u in range(g.n_objects):
                G = isotropy(g, u)
                T = transversal(g, u)
                # simple modules over Z/n are residue modules
                mods = [trivial_module(G, ring), regular_module(G, ring)]
                for N in mods + simple_modules_group(G, ring):
                    rho = induce(g, ring, u, N)
                    ref = reference_induce(g, ring, u, N, T)
                    assert rho.matrix_ring == ref.matrix_ring
                    assert rho.to_json_dict() == ref.to_json_dict(), (name, u)
                    ann = module_annihilator_space(N)
                    direct = induced_annihilator_from_space(g, ring, u, ann)
                    want = reference_induced_annihilator(g, ring, u, ann, T)
                    assert direct.space == want.space, (name, u)
                    cases += 1
    assert cases >= 400
