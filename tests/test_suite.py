import json
import random

import pytest

from gpdalg import (
    AlgebraElement,
    IsotropyModule,
    Matrix,
    UnsupportedRingError,
    all_submodules,
    enumerate_all_ideals,
    enumerate_primitive_ideals,
    full_ideal,
    group_groupoid,
    ideal_from_generators,
    induce,
    isotropy,
    pair_groupoid,
    primitive_ideal_oracle,
    regular_module,
    regular_rep,
    ring_from_spec,
    stalk_annihilator_space,
    trivial_module,
    verify_ideal_is_intersection,
    verify_primitive_ideals,
    verify_primitive_single_inducer,
    zero_ideal,
)

from gpdalg.cli import parse_generator_spec
from gpdalg.ideals import _closed_two_sided
from gpdalg.modules import is_invariant

from conftest import (
    all_subspaces,
    klein_table,
    named_pool,
    reference_closed_two_sided,
    reference_ideal_space,
    swap3,
    zg,
)

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")
Z4 = ring_from_spec("zn:4")


def test_ideal_intersection_all_ideals_of_f2z2():
    g = zg(2)
    ideals = enumerate_all_ideals(g, F2)
    assert len(ideals) == 3
    for I in ideals:
        rep = verify_ideal_is_intersection(g, F2, I, instance="z2")
        assert rep.verified, I
        assert rep.witnesses["constant_on_orbits"] is True


def test_ideal_intersection_over_zn4():
    g = zg(2)
    I = ideal_from_generators(g, Z4, [AlgebraElement(g, Z4, [2, 0]),
                                      AlgebraElement(g, Z4, [1, 1])])
    rep = verify_ideal_is_intersection(g, Z4, I, instance="z2-rad")
    assert rep.verified
    assert rep.witnesses["ideal"] == [["1", "1"], ["0", "2"]]
    z = verify_ideal_is_intersection(g, Z4, zero_ideal(g, Z4))
    f = verify_ideal_is_intersection(g, Z4, full_ideal(g, Z4))
    assert z.verified and f.verified


def test_ideal_intersection_over_rationals():
    g = swap3()
    I = zero_ideal(g, Q)
    assert verify_ideal_is_intersection(g, Q, I).verified
    gens = [AlgebraElement(g, Q, [0, 0, 0, 0, 1, 1])]
    J = ideal_from_generators(g, Q, gens)
    assert verify_ideal_is_intersection(g, Q, J).verified


def test_stalk_annihilator_direct_agrees_with_sheaf_route():
    # the ambient-algebra formula and the disintegration route compute
    # the same stalk annihilator over a field
    from gpdalg import (quotient_algebra_rep, sheaf_of,
                        stalk_isotropy_module, module_annihilator_space)
    for g in (zg(2), zg(3), swap3()):
        for ring in (F2, F3):
            for I in enumerate_all_ideals(g, ring):
                rho = quotient_algebra_rep(g, ring, I)
                S = sheaf_of(rho)
                for u in range(g.n_objects):
                    via_sheaf = module_annihilator_space(
                        stalk_isotropy_module(S, u))
                    direct = stalk_annihilator_space(g, ring, I, u)
                    assert via_sheaf == direct


def test_primitive_single_inducer_verified():
    g = zg(2)
    sims = {ring: enumerate_primitive_ideals(g, ring)
            for ring in (F2, Z4)}
    assert len(sims[Z4]) == 1
    from gpdalg import simple_modules_group
    for ring in (F2, F3, Z4, Q):
        for N in simple_modules_group(isotropy(g, 0), ring):
            rho = induce(g, ring, 0, N)
            rep = verify_primitive_single_inducer(g, ring, rho)
            assert rep.verified
            assert rep.witnesses["inducer_object"] == 0


def test_primitive_single_skips_non_simple():
    g = zg(2)
    rho = regular_rep(g, Q)
    rep = verify_primitive_single_inducer(g, Q, rho)
    assert rep.verdict == "skipped"
    assert "not simple" in rep.reason


def test_primitive_single_skips_induced_regular_qz3():
    # Q[Z/3] splits as Q + Q(zeta_3), and so does the induced module.
    g = zg(3)
    rho = induce(g, Q, 0, regular_module(isotropy(g, 0), Q))
    rep = verify_primitive_single_inducer(g, Q, rho)
    assert (rep.verdict, rep.reason) == ("skipped", "module is not simple")


def test_primitive_single_skips_undecided_klein_module():
    # Over Q simplicity is decided for cyclic isotropy groups only.
    g = group_groupoid(klein_table())
    G = isotropy(g, 0)
    mats = [Matrix.from_rows(Q, [[1, 0], [0, (-1) ** (i & 1)]])
            for i in range(G.order)]
    N = IsotropyModule(G, Q, 2, mats)
    rep = verify_primitive_single_inducer(g, Q, induce(g, Q, 0, N))
    assert rep.verdict == "skipped"
    assert rep.reason.startswith("simplicity check: ")
    assert "cyclic" in rep.reason


def test_oracle_matches_enumeration():
    for g in (zg(2), zg(3), pair_groupoid(2)):
        for ring in (F2, F3):
            assert enumerate_primitive_ideals(g, ring) \
                == primitive_ideal_oracle(g, ring)
    with pytest.raises(UnsupportedRingError):
        primitive_ideal_oracle(zg(2), Q)


@pytest.mark.parametrize("ring_spec", ["fp:2", "fp:3"])
@pytest.mark.parametrize("spec", ["pair:2", "group:z2", "group:z3",
                                  "group:z4", "action:z2:1,0,2",
                                  "group:z2+pair:1"])
def test_lattice_matches_brute_force_subspaces(spec, ring_spec):
    g = parse_generator_spec(spec)
    ring = ring_from_spec(ring_spec)
    key = lambda S: (S.num_rows, S.basis)
    reg = regular_rep(g, ring)
    invariant = sorted((S for S in all_subspaces(ring, g.n_arrows)
                        if is_invariant(reg, S)), key=key)
    assert all_submodules(reg) == invariant
    # A two-sided ideal is in particular a left submodule.
    assert [I.space for I in enumerate_all_ideals(g, ring)] == [
        S for S in invariant if _closed_two_sided(g, ring, S) is None]
    # The arrow-action check agrees with the convolution reference.
    for S in all_subspaces(ring, g.n_arrows):
        assert (_closed_two_sided(g, ring, S) is None) \
            == (reference_closed_two_sided(g, ring, S) is None)


def test_ideal_closure_matches_convolution_reference(any_ring):
    for name, g in named_pool():
        m = g.n_arrows
        rng = random.Random(name)
        gen_sets = [[tuple(1 if b == a else 0 for b in range(m))]
                    for a in (0, m - 1)]
        for k in (1, 1, 2):
            gen_sets.append([tuple(rng.randrange(-1, 3) for _ in range(m))
                             for _ in range(k)])
        for gens in gen_sets:
            gens = [any_ring.coerce_vector(v) for v in gens]
            assert ideal_from_generators(g, any_ring, gens).space \
                == reference_ideal_space(g, any_ring, gens), (name, gens)


def test_pair3_over_f2_matches_oracle():
    # M_3(F_2) is simple: the zero ideal is its only primitive ideal.
    rep = verify_primitive_ideals(pair_groupoid(3), F2, instance="pair:3")
    assert rep.verified
    assert rep.witnesses["oracle_ideals"] \
        == rep.witnesses["primitive_ideals"] == [[]]


def test_qz2_primitive_ideals_frozen():
    g = zg(2)
    prims = enumerate_primitive_ideals(g, Q)
    expected = {ideal_from_generators(g, Q, [AlgebraElement(g, Q, [1, 1])]),
                ideal_from_generators(g, Q, [AlgebraElement(g, Q, [1, -1])])}
    assert set(prims) == expected


def test_small_group_primitive_sets_frozen():
    g = zg(2)
    assert enumerate_primitive_ideals(g, F2) == [
        ideal_from_generators(g, F2, [AlgebraElement(g, F2, [1, 1])])]
    f3set = set(enumerate_primitive_ideals(g, F3))
    assert f3set == {
        ideal_from_generators(g, F3, [AlgebraElement(g, F3, [1, 1])]),
        ideal_from_generators(g, F3, [AlgebraElement(g, F3, [1, -1])])}
    assert enumerate_primitive_ideals(pair_groupoid(2), F2) == [
        zero_ideal(pair_groupoid(2), F2)]


def test_zn4_single_primitive_ideal():
    g = zg(2)
    prims = enumerate_primitive_ideals(g, Z4)
    assert len(prims) == 1
    assert prims[0].basis == ((1, 1), (0, 2))
    rep = verify_primitive_ideals(g, Z4, instance="z2")
    assert rep.verified
    assert len(rep.witnesses["primitive_ideals"]) == 1


def test_verify_primitive_ideals_reports():
    for name, g in (("z:2", zg(2)), ("swap3", swap3()),
                    ("pair:2", pair_groupoid(2))):
        for ring in (F2, F3):
            rep = verify_primitive_ideals(g, ring, instance=name)
            assert rep.verified, (name, ring.spec_string())
            assert rep.witnesses["primitive_ideals"] \
                == rep.witnesses["oracle_ideals"]


def test_bound_produces_skipped_verdict():
    rep = verify_primitive_ideals(zg(3), F2, bound=2)
    assert rep.verdict == "skipped"
    assert "bound" in rep.reason


def test_report_serialization():
    rep = verify_primitive_ideals(zg(2), F2, instance="z2")
    d = rep.to_json_dict()
    assert "wall_time" not in d
    assert "wall_time" in rep.to_json_dict(include_timing=True)
    json.dumps(d)  # must be serializable as-is
