import random

import pytest

import gpdalg.ideals
import gpdalg.linalg
import gpdalg.meataxe
import gpdalg.modules
import gpdalg.sheaves
from gpdalg import (
    AlgebraElement,
    BoundExceededError,
    ConstructionError,
    FiniteGroupoid,
    Matrix,
    NonFreeQuotientError,
    Rep,
    UnsupportedRingError,
    annihilator,
    disintegration_iso,
    disjoint_union,
    gamma_c,
    ideal_equal,
    ideal_from_generators,
    induce,
    induced_annihilator_direct,
    induced_annihilator_from_space,
    is_simple,
    isotropy,
    module_annihilator_space,
    orbits,
    pair_groupoid,
    quotient_algebra_rep,
    regular_rep,
    regular_module,
    regular_sheaf,
    relabel_arrows,
    rep_validate,
    ring_from_spec,
    sheaf_of,
    sheaf_validate,
    sign_module,
    simple_modules_group,
    stalk_isotropy_module,
    trivial_module,
    verify_primitive_single_inducer,
)

from gpdalg.cli import parse_generator_spec

from conftest import (RING_SPECS, block_sum, named_pool, reference_is_simple,
                      reference_sheaf_of, swap3, zg)

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


def test_disintegration_iso_of_the_zero_module():
    # No stalk has a row: the map is the 0 x 0 matrix.
    for ring in (Q, F2, Z4):
        for g in (pair_groupoid(2), zg(3),
                  disjoint_union(zg(2), pair_groupoid(1))):
            zero = Rep(g, ring, 0, [Matrix.zeros(ring, 0, 0)] * g.n_arrows)
            assert disintegration_iso(zero) == Matrix.zeros(ring, 0, 0)


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


def _simplicity_cases(g, ring):
    """Isotropy modules at every object (trivial, regular, sign, every
    simple), their induced modules, the regular module of g and, when g
    has two orbits, a sum of induced trivial modules spread over them."""
    cases = [regular_rep(g, ring)]
    for u in range(g.n_objects):
        G = isotropy(g, u)
        local = [trivial_module(G, ring), regular_module(G, ring)]
        try:
            local.append(sign_module(G, ring))
        except ConstructionError:
            pass
        try:
            local += simple_modules_group(G, ring)
        except UnsupportedRingError:
            pass
        cases += local + [induce(g, ring, u, N) for N in local]
    reps = orbits(g).representatives
    if len(reps) > 1:
        cases.append(block_sum(*(induce(g, ring, u,
                                       trivial_module(isotropy(g, u), ring))
                                for u in reps[:2])))
    return cases


def _outcome(fn, module):
    try:
        return fn(module)
    except (BoundExceededError, UnsupportedRingError) as exc:
        return type(exc)


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:3", "fp:5", "zn:4",
                                  "zn:5", "zn:8", "zn:9"])
def test_is_simple_matches_reference(spec):
    # The stalk route agrees with the whole-module lattice wherever the
    # latter fits in the bound, which keeps those searches short.
    ring = ring_from_spec(spec)
    compared = 0
    for name, g in named_pool():
        for M in _simplicity_cases(g, ring):
            want = _outcome(lambda M: reference_is_simple(M, 1 << 10), M)
            if want is BoundExceededError:
                continue
            got = _outcome(lambda M: is_simple(M, 1 << 10), M)
            assert got == want, (name, spec, M)
            compared += 1
    assert compared > 150


@pytest.mark.parametrize("spec", ["fp:2", "fp:3", "zn:4", "zn:5", "zn:8",
                                  "zn:9"])
def test_simplicity_never_enumerates(spec, monkeypatch):
    # Norton's test decides over F_p and Z/p, and p N != 0 over Z/p^k,
    # k >= 2: no simplicity check visits a single enumerated vector.
    ring = ring_from_spec(spec)
    cases = [M for _, g in named_pool() for M in _simplicity_cases(g, ring)]

    def refuse(*args):
        raise AssertionError("enumerated %r" % (args,))

    for mod in (gpdalg.meataxe, gpdalg.modules):
        monkeypatch.setattr(mod, "span_vectors", refuse)
    monkeypatch.setattr(gpdalg.linalg, "nonzero_vectors", refuse)
    assert sum(is_simple(M, bound=1) for M in cases) > 0


def test_non_prime_power_modulus_is_never_simple():
    # Over Z/6 the CRT idempotents 3 and 4 act as the two units of the
    # discrete groupoid on two points: each stalk is a non-free summand.
    Z6 = ring_from_spec("zn:6")
    g = disjoint_union(pair_groupoid(1), pair_groupoid(1))
    mats = [None, None]
    mats[g.unit_of[0]] = Matrix(Z6, 1, 1, [3])
    mats[g.unit_of[1]] = Matrix(Z6, 1, 1, [4])
    rho = Rep(g, Z6, 1, mats)
    assert rep_validate(rho) == []
    assert reference_is_simple(rho) is False
    assert is_simple(rho) is False
    with pytest.raises(NonFreeQuotientError):
        sheaf_of(rho)
    rep = verify_primitive_single_inducer(g, Z6, rho)
    assert (rep.verdict, rep.reason) == ("skipped", "module is not simple")


def test_one_disintegration_and_one_closure_check_per_verdict(monkeypatch):
    calls = {"sheaf_of": 0, "closure": []}
    sheaf_of_real = gpdalg.sheaves.sheaf_of
    closed_real = gpdalg.ideals._closed_two_sided

    def counted_sheaf_of(rho):
        calls["sheaf_of"] += 1
        return sheaf_of_real(rho)

    def counted_closed(g, ring, space):
        calls["closure"].append(g)
        return closed_real(g, ring, space)

    monkeypatch.setattr(gpdalg.sheaves, "sheaf_of", counted_sheaf_of)
    monkeypatch.setattr(gpdalg.ideals, "_closed_two_sided", counted_closed)
    checked = 0
    for spec in ("q", "fp:3", "zn:4"):
        ring = ring_from_spec(spec)
        for name, g in named_pool():
            for u in orbits(g).representatives:
                G = isotropy(g, u)
                try:
                    sims = simple_modules_group(G, ring)
                except UnsupportedRingError:
                    continue
                for N in sims:
                    rho = induce(g, ring, u, N)
                    calls["closure"].clear()
                    induced_annihilator_direct(g, ring, u, N)
                    assert calls["closure"] == [G.groupoid], name
                    calls["closure"].clear()
                    induced_annihilator_from_space(
                        g, ring, u, module_annihilator_space(N))
                    assert calls["closure"] == [G.groupoid], name
                    calls["sheaf_of"] = 0
                    calls["closure"].clear()
                    rep = verify_primitive_single_inducer(g, ring, rho)
                    assert rep.verified, (name, spec)
                    assert calls["sheaf_of"] == 1, (name, spec)
                    # Only Ann(N), on R[G_u]: the verdict compares the
                    # relation spaces, and J is an ideal by construction.
                    assert calls["closure"] == [G.groupoid]
                    checked += 1
    assert checked > 30


@pytest.mark.parametrize("spec", ("q", "fp:2", "fp:3", "zn:4", "zn:8",
                                  "zn:9"))
def test_sheaf_of_matches_the_per_column_coordinates(spec):
    # The arrow matrices read through linalg.restrict equal the stalk
    # coordinates of each image, column by column, on regular modules and
    # on the modules induced from every regular, trivial and simple
    # isotropy module.
    ring = ring_from_spec(spec)
    count = 0
    for name, g in named_pool():
        modules = [regular_rep(g, ring)]
        for u in orbits(g).representatives:
            G = isotropy(g, u)
            for N in [regular_module(G, ring), trivial_module(G, ring)] \
                    + simple_modules_group(G, ring):
                modules.append(induce(g, ring, u, N))
        for rho in modules:
            got, want = sheaf_of(rho), reference_sheaf_of(rho)
            assert (got.matrix_ring, got.stalk_dims, got.arrow_mats,
                    got.stalk_bases) == (want.matrix_ring, want.stalk_dims,
                                         want.arrow_mats,
                                         want.stalk_bases), name
            count += 1
    assert count > 50


def test_sheaf_of_keeps_its_errors():
    Z6 = ring_from_spec("zn:6")
    g = disjoint_union(pair_groupoid(1), pair_groupoid(1))
    crt = Rep(g, Z6, 1, [Matrix(Z6, 1, 1, [3]), Matrix(Z6, 1, 1, [4])])
    bad = Rep(zg(2), F3, 1, [Matrix(F3, 1, 1, [2]), Matrix(F3, 1, 1, [1])])
    for rho, err in ((crt, NonFreeQuotientError), (bad, ConstructionError)):
        messages = []
        for f in (sheaf_of, reference_sheaf_of):
            with pytest.raises(err) as info:
                f(rho)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7", "zn:12"))
def test_regular_sheaf_matches_sheaf_of_the_regular_rep(spec):
    # The closed form against the general route on pair, group and action
    # groupoids, disjoint unions and the groupoid with no objects, each
    # also under a seeded relabelling.  pair:8 and pair:10 keep sheaf_of's
    # sparse products of m x m matrices covered.
    ring = ring_from_spec(spec)
    rng = random.Random(spec)
    specs = ["pair:%d" % n for n in (1, 2, 3, 4, 5, 8, 10)] \
        + ["group:z%d" % n for n in range(1, 7)] \
        + ["action:z4:1,2,3,0", "action:z2:1,0,2", "action:z6:1,2,0,4,5,3",
           "group:z3+pair:3", "pair:2+group:z2+action:z2:1,0"]
    pool = [(s, parse_generator_spec(s)) for s in specs] \
        + [("empty", FiniteGroupoid(0, [], [], {}, []))]
    for name, g in pool:
        perm = list(range(g.n_arrows))
        rng.shuffle(perm)
        for h in (g, relabel_arrows(g, perm)):
            fast, slow = regular_sheaf(h, ring), sheaf_of(regular_rep(h, ring))
            assert fast.stalk_dims == slow.stalk_dims, name
            assert fast.arrow_mats == slow.arrow_mats, name
            assert [hash(M) for M in fast.arrow_mats] \
                == [hash(M) for M in slow.arrow_mats], name
            assert fast.to_json_dict() == slow.to_json_dict(), name
            assert sheaf_validate(fast) == [], name
            m = h.n_arrows
            for u, space in enumerate(slow.stalk_bases):
                assert space.basis == tuple(
                    tuple(ring.one if j == b else ring.zero
                          for j in range(m))
                    for b in h.arrows_into(u)), (name, u)
