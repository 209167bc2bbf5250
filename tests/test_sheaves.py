import random

import pytest

from gpdalg import (
    AlgebraElement,
    Matrix,
    annihilator,
    disintegration_iso,
    gamma_c,
    ideal_equal,
    ideal_from_generators,
    induce,
    isotropy,
    orbits,
    pair_groupoid,
    quotient_algebra_rep,
    regular_rep,
    rep_validate,
    ring_from_spec,
    sheaf_of,
    sheaf_validate,
    simple_modules_group,
    stalk_isotropy_module,
    trivial_module,
)

from conftest import named_pool, swap3, zg

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")
Z4 = ring_from_spec("zn:4")


def test_stalk_dims_of_regular_rep():
    # the stalk at u of the regular module is spanned by arrows into u
    for name, g in named_pool():
        S = sheaf_of(regular_rep(g, F3))
        assert S.stalk_dims == tuple(len(g.arrows_into(u))
                                     for u in range(g.n_objects)), name
        assert sheaf_validate(S) == [], name


def test_sheaf_of_swap3_frozen():
    S = sheaf_of(regular_rep(swap3(), Q))
    assert S.stalk_dims == (2, 2, 2)
    assert S.support() == (0, 1, 2)
    N = stalk_isotropy_module(S, 2)
    assert N.group.order == 2 and N.dim == 2


def test_sheaf_validate_catches_tampering():
    from gpdalg import SheafData
    S = sheaf_of(regular_rep(zg(2), F2))
    mats = list(S.arrow_mats)
    mats[1] = Matrix.from_rows(F2, [[0, 1], [0, 0]])
    bad = SheafData(S.groupoid, S.ring, S.matrix_ring, S.stalk_dims, mats,
                    S.stalk_bases)
    assert sheaf_validate(bad) != []


def test_gamma_c_rebuilds_a_valid_rep():
    for name, g in named_pool()[:10]:
        for ring in (F2, Q):
            S = sheaf_of(regular_rep(g, ring))
            sec = gamma_c(S)
            assert rep_validate(sec) == [], name
            assert sec.dim == sum(S.stalk_dims)


def test_disintegration_of_regular_reps():
    for name, g in named_pool():
        for ring in (Q, F2, F3, Z4):
            rho = regular_rep(g, ring)
            T = disintegration_iso(rho)
            assert T.nrows == rho.dim and T.ncols == rho.dim
            S = sheaf_of(rho)
            sec = gamma_c(S)
            assert ideal_equal(annihilator(rho), annihilator(sec)), name


def test_disintegration_of_quotients_and_induced():
    g = zg(2)
    I = ideal_from_generators(g, F2, [AlgebraElement(g, F2, [1, 1])])
    quo = quotient_algebra_rep(g, F2, I)
    T = disintegration_iso(quo)
    assert T.nrows == 1
    h = swap3()
    for ring in (Q, F3):
        for u in orbits(h).representatives:
            rho = induce(h, ring, u, trivial_module(isotropy(h, u), ring))
            disintegration_iso(rho)
            sec = gamma_c(sheaf_of(rho))
            assert ideal_equal(annihilator(rho), annihilator(sec))


def test_stalk_module_of_induced_matches_source():
    # inducing then disintegrating at the base recovers a module with the
    # same annihilator as the input
    g = swap3()
    G = isotropy(g, 2)
    for ring in (F2, F3):
        for N in simple_modules_group(G, ring):
            rho = induce(g, ring, 2, N)
            S = sheaf_of(rho)
            M = stalk_isotropy_module(S, 2)
            from gpdalg import module_annihilator_space
            assert module_annihilator_space(M) == module_annihilator_space(N)


def test_round_trip_is_isomorphic_to_input():
    from gpdalg import is_isomorphic, sign_module
    g = swap3()
    for ring in (Q, F3):
        for u, builder in ((0, trivial_module), (2, sign_module)):
            rho = induce(g, ring, u, builder(isotropy(g, u), ring))
            sec = gamma_c(sheaf_of(rho))
            assert is_isomorphic(rho, sec)
    reg = regular_rep(zg(2), Q)
    assert is_isomorphic(reg, gamma_c(sheaf_of(reg)))


def test_sections_of_pair_groupoid():
    g = pair_groupoid(3)
    S = sheaf_of(regular_rep(g, F2))
    assert S.stalk_dims == (3, 3, 3)
    sec = gamma_c(S)
    assert rep_validate(sec) == []
    assert annihilator(sec).is_zero()


def test_sheaf_json_shape():
    S = sheaf_of(regular_rep(zg(2), F2))
    d = S.to_json_dict()
    assert d["stalk_dims"] == [2]
    assert len(d["matrices"]) == 2
