import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from gpdalg import (
    AlgebraElement,
    BoundExceededError,
    ConstructionError,
    GpdalgError,
    GroupoidMismatchError,
    Ideal,
    IsotropyModule,
    Matrix,
    NonFreeQuotientError,
    NotAnIdealError,
    Rep,
    RingMismatchError,
    Subspace,
    UnsupportedRingError,
    all_submodules,
    annihilator,
    basis_element,
    convolve,
    disjoint_union,
    enumerate_all_ideals,
    gamma_c,
    group_groupoid,
    hom_space,
    ideal_from_generators,
    induce,
    is_isomorphic,
    is_simple,
    isotropy,
    maximal_submodule,
    module_annihilator_space,
    orbits,
    pair_groupoid,
    quotient_algebra_rep,
    regular_module,
    regular_rep,
    relabel_arrows,
    rep_quotient,
    rep_submodule,
    rep_validate,
    ring_from_spec,
    sheaf_of,
    sheaf_validate,
    sign_module,
    simple_modules_group,
    trivial_module,
    zero_ideal,
)

from gpdalg import meataxe, modules
from gpdalg.cli import parse_generator_spec
from gpdalg.groupoid import generating_arrows
from gpdalg.ideals import _arrow_actions
from gpdalg.linalg import invariant_lattice
from gpdalg.sheaves import SheafData

from conftest import (
    RING_SPECS,
    block_sum,
    brute_span,
    klein_table,
    named_pool,
    reference_enumerate_all_ideals,
    reference_hom_space,
    reference_module_validate,
    reference_regular_module,
    reference_rep_quotient,
    reference_rep_submodule,
    reference_cyclic_module,
    reference_rep_validate,
    reference_sheaf_validate,
    swap3,
    zg,
)

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")
Z4 = ring_from_spec("zn:4")


def iso_group(g, u=0):
    return isotropy(g, u)


def test_regular_rep_validates_and_is_faithful():
    for name, g in named_pool():
        for ring in (Q, F2, Z4):
            rho = regular_rep(g, ring)
            assert rep_validate(rho) == [], name
            assert annihilator(rho).is_zero(), name


def test_rep_validate_catches_tampering():
    g = zg(2)
    rho = regular_rep(g, F2)
    nilpotent = Matrix.from_rows(F2, [[0, 1], [0, 0]])
    bad = Rep(g, F2, rho.dim, [rho.mats[0], nilpotent])
    assert rep_validate(bad) != []


def corruptions(mats, ring):
    """Each matrix list with one entry changed by one, every entry in
    turn, inside and outside the blocks."""
    for a, M in enumerate(mats):
        for pos, x in enumerate(M.entries):
            entries = list(M.entries)
            entries[pos] = ring.coerce(x + 1)
            bad = list(mats)
            bad[a] = Matrix(ring, M.nrows, M.ncols, entries)
            yield (a, pos), bad


def validation_pool(ring):
    """(groupoid, valid modules) pairs: the regular module and its
    sections where they are small, and on action:z4:1,0,3,2, whose Z/2
    isotropy sits on 2-object orbits, a module induced on each orbit."""
    pool = []
    for g in (pair_groupoid(2), disjoint_union(zg(2), pair_groupoid(2)),
              swap3(), group_groupoid(klein_table())):
        reg = regular_rep(g, ring)
        pool.append((g, [reg, gamma_c(sheaf_of(reg))]))
    g = parse_generator_spec("action:z4:1,0,3,2")
    sign = induce(g, ring, 0, sign_module(isotropy(g, 0), ring))
    triv = induce(g, ring, 2, trivial_module(isotropy(g, 2), ring))
    pool.append((g, [block_sum(sign, triv)]))
    return pool


@pytest.mark.parametrize("spec", ["fp:2", "fp:3", "q", "zn:4"])
def test_rep_validate_cut_agrees_with_all_pairs(spec):
    ring = ring_from_spec(spec)
    for g, modules in validation_pool(ring):
        # Every arrow acting as the identity passes the composable pairs;
        # on three objects over F_2 the units also sum to the identity, so
        # only their orthogonality rules it out.
        ident = Matrix.identity(ring, modules[0].dim)
        const = Rep(g, ring, modules[0].dim, [ident] * g.n_arrows)
        assert bool(rep_validate(const)) \
            == bool(reference_rep_validate(const))
        for rho in modules:
            assert rep_validate(rho) == reference_rep_validate(rho) == []
            for where, mats in corruptions(rho.mats, ring):
                bad = Rep(g, ring, rho.dim, mats)
                assert bool(rep_validate(bad)) \
                    == bool(reference_rep_validate(bad)), where


@pytest.mark.parametrize("spec", ["fp:2", "fp:3", "q", "zn:4"])
def test_sheaf_validate_cut_agrees_with_all_pairs(spec):
    ring = ring_from_spec(spec)
    for g, modules in validation_pool(ring):
        for rho in modules + [regular_rep(g, ring)]:
            S = sheaf_of(rho)
            assert sheaf_validate(S) == reference_sheaf_validate(S) == []
            for where, mats in corruptions(S.arrow_mats, ring):
                bad = SheafData(g, ring, ring, S.stalk_dims, mats)
                assert bool(sheaf_validate(bad)) \
                    == bool(reference_sheaf_validate(bad)), where


@pytest.mark.parametrize("n", [3, 5, 10])
def test_rep_validate_multiplies_only_on_generating_arrows(n, monkeypatch):
    g = pair_groupoid(n)
    assert orbits(g) is orbits(g)
    rho = regular_rep(g, Q)
    calls = []
    mul = Matrix.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert rep_validate(rho) == []
    expected = sum(len(g.arrows_into(g.d(s)))
                   for s in generating_arrows(g)) + n * (n - 1)
    assert len(calls) == expected
    if n == 10:
        assert expected == 370
    # sheaf_validate runs the same functor check, without the unit
    # products.
    S = sheaf_of(rho)
    calls.clear()
    assert sheaf_validate(S) == []
    assert len(calls) == expected - n * (n - 1)


def test_builtin_modules_validate():
    for g in (zg(1), zg(2), zg(4), group_groupoid(klein_table())):
        G = iso_group(g)
        for ring in (Q, F2, F3, Z4):
            assert rep_validate(trivial_module(G, ring)) == []
            assert rep_validate(regular_module(G, ring)) == []
            if G.order % 2 == 0 and G.generator_if_cyclic() is not None:
                assert rep_validate(sign_module(G, ring)) == []


@pytest.mark.parametrize("spec", RING_SPECS)
def test_rep_validate_agrees_with_group_module_axioms(spec):
    # On a group's one-object groupoid rep_validate checks exactly the
    # group-module axioms, invertibility included.
    ring = ring_from_spec(spec)
    for g in (zg(2), zg(3), zg(4), group_groupoid(klein_table())):
        G = iso_group(g)
        mods = [trivial_module(G, ring), regular_module(G, ring)]
        if G.order % 2 == 0 and G.generator_if_cyclic() is not None:
            mods.append(sign_module(G, ring))
        if G.generator_if_cyclic() is not None or ring.size is not None:
            mods += simple_modules_group(G, ring)
        # Multiplicative but not unital: every element acts as a projection.
        proj = Matrix.from_rows(ring, [[1, 0], [0, 0]])
        const = IsotropyModule(G, ring, 2, [proj] * G.order)
        assert bool(rep_validate(const)) \
            == bool(reference_module_validate(const)) is True
        for N in mods:
            assert rep_validate(N) == reference_module_validate(N) == []
            MR = N.matrix_ring
            for a, M in enumerate(N.mats):
                for pos, x in enumerate(M.entries):
                    entries = list(M.entries)
                    entries[pos] = MR.coerce(x + 1)
                    mats = list(N.mats)
                    mats[a] = Matrix(MR, M.nrows, M.ncols, entries)
                    bad = IsotropyModule(G, N.ring, N.dim, mats,
                                         matrix_ring=MR)
                    assert bool(rep_validate(bad)) \
                        == bool(reference_module_validate(bad)), (a, pos)


def test_regular_module_matches_table_construction():
    rng = random.Random(5)
    groups = [iso_group(zg(k)) for k in range(1, 7)]
    groups += [iso_group(group_groupoid(klein_table())), iso_group(swap3(), 2)]
    for g in (zg(4), zg(6), swap3()):
        perm = list(range(g.n_arrows))
        rng.shuffle(perm)
        h = relabel_arrows(g, perm)
        groups += [iso_group(h, u) for u in orbits(h).representatives]
    for G in groups:
        for ring in (Q, F2, Z4):
            N = regular_module(G, ring)
            ref = reference_regular_module(G, ring)
            assert (N.group, N.dim, N.mats) == (ref.group, ref.dim, ref.mats)


def test_hom_space_needs_one_group():
    # The loop groups at objects 0 and 1 of swap3 are both trivial: equal
    # tables and equal one-object groupoids, but different groups.
    g = swap3()
    A, B = (trivial_module(iso_group(g, u), Q) for u in (0, 1))
    assert A.groupoid == B.groupoid
    assert hom_space(A, A).num_rows == 1
    with pytest.raises(GroupoidMismatchError):
        hom_space(A, B)
    N = regular_module(iso_group(zg(2)), Q)
    rho = regular_rep(N.groupoid, Q)
    for X, Y in ((N, rho), (rho, N)):
        with pytest.raises(GroupoidMismatchError):
            hom_space(X, Y)


def test_sign_module_needs_even_cyclic():
    with pytest.raises(ConstructionError):
        sign_module(iso_group(zg(3)), Q)
    with pytest.raises(ConstructionError):
        sign_module(iso_group(group_groupoid(klein_table())), Q)


def test_isomorphism_over_a_large_prime_field_with_zero_hom():
    # Hom(trivial, sign) = 0 over F_p, p odd: no vector of F_p^0 is
    # searched, so F_p is never listed.
    G = iso_group(zg(2))
    F = ring_from_spec("fp:%d" % (2 ** 61 - 1))
    assert not is_isomorphic(trivial_module(G, F), sign_module(G, F))


def test_annihilator_of_sign_and_trivial():
    G = iso_group(zg(2))
    # t acts by -1, so a + bt dies exactly when a = b
    assert module_annihilator_space(sign_module(G, Q)).basis == ((1, 1),)
    assert module_annihilator_space(trivial_module(G, Q)).basis == ((1, -1),)
    # characteristic 2 collapses both to the augmentation ideal
    assert module_annihilator_space(sign_module(G, F2)).basis == ((1, 1),)
    # the zero module is killed by the whole algebra
    for g in (zg(2), pair_groupoid(2)):
        for ring in (Q, F2, Z4):
            zero = Rep(g, ring, 0, [Matrix.zeros(ring, 0, 0)] * g.n_arrows)
            assert annihilator(zero).space.is_full()


def test_annihilator_zn4_lifted_through_residue():
    G = iso_group(zg(2))
    sims = simple_modules_group(G, Z4)
    assert len(sims) == 1
    N = sims[0]
    assert N.matrix_ring == ring_from_spec("fp:2")
    assert N.dim == 1 and N.mats[1].to_lists() == [[1]]
    assert module_annihilator_space(N).basis == ((1, 1), (0, 2))
    gen_ideal = ideal_from_generators(
        zg(2), Z4, [AlgebraElement(zg(2), Z4, [2, 0]),
                    AlgebraElement(zg(2), Z4, [1, 1])])
    assert gen_ideal.basis == ((1, 1), (0, 2))


def test_regular_qz2_decomposes_into_characters():
    from gpdalg.modules import spin
    M = regular_module(iso_group(zg(2)), Q)
    plus = spin(M, [(1, 1)])
    minus = spin(M, [(1, -1)])
    assert plus.basis == ((1, 1),)
    assert minus.basis == ((1, -1),)
    assert plus.join(minus).is_full()


def test_simple_modules_frozen_inventories():
    # F2[Z2]: x^2-1 = (x-1)^2, single simple
    assert [N.dim for N in simple_modules_group(iso_group(zg(2)), F2)] == [1]
    # Q[Z2]: the two characters
    assert [N.dim for N in simple_modules_group(iso_group(zg(2)), Q)] \
        == [1, 1]
    # F2[Z3]: x^3-1 = (x-1)(x^2+x+1)
    assert sorted(N.dim for N in simple_modules_group(iso_group(zg(3)), F2)) \
        == [1, 2]
    # F3[Z3]: x^3-1 = (x-1)^3
    assert [N.dim for N in simple_modules_group(iso_group(zg(3)), F3)] == [1]
    # F3[Z4]: x^4-1 = (x-1)(x+1)(x^2+1)
    assert sorted(N.dim for N in simple_modules_group(iso_group(zg(4)), F3)) \
        == [1, 1, 2]
    # Q[Z4]: cyclotomic factors of degree 1, 1, 2
    assert sorted(N.dim for N in simple_modules_group(iso_group(zg(4)), Q)) \
        == [1, 1, 2]
    assert sorted(N.dim for N in simple_modules_group(iso_group(zg(3)), Q)) \
        == [1, 2]
    assert sorted(N.dim for N in simple_modules_group(iso_group(zg(5)), Q)) \
        == [1, 4]


def test_simple_modules_are_simple_and_distinct():
    for ring in (F2, F3):
        for g in (zg(2), zg(3), zg(4), group_groupoid(klein_table())):
            sims = simple_modules_group(iso_group(g), ring)
            for N in sims:
                assert rep_validate(N) == []
                assert is_simple(N)
            for i in range(len(sims)):
                for j in range(i + 1, len(sims)):
                    assert not is_isomorphic(sims[i], sims[j])


def test_rationals_need_cyclic_isotropy():
    with pytest.raises(UnsupportedRingError):
        simple_modules_group(iso_group(group_groupoid(klein_table())), Q)


def test_is_simple_basic():
    G = iso_group(zg(2))
    assert is_simple(trivial_module(G, Q))
    assert not is_simple(regular_module(G, Q))
    assert not is_simple(regular_module(G, F2))
    # Q[Z3] = Q + Q(zeta_3): basis vectors and their sums all spin to it
    assert not is_simple(regular_module(iso_group(zg(3)), Q))
    # the regular module of Z3 over F2 splits but is not simple
    assert not is_simple(regular_module(iso_group(zg(3)), F2))


def test_is_simple_bound(monkeypatch):
    # Norton's test splits the regular module of Z/4 over F_3 without a
    # search (the lattice search charged 3^4 states against the bound).
    assert not is_simple(regular_module(iso_group(zg(4)), F3), bound=1)
    # With no word that decides, the lines of the kernel are enumerated
    # against the bound: 2^2 of them for the simple of F_2[Z3] of dim 2.
    monkeypatch.setattr(meataxe, "_words", lambda maps: iter(
        [Matrix.identity(maps[0].ring, maps[0].nrows)]))
    (S,) = [N for N in simple_modules_group(iso_group(zg(3)), F2)
            if N.dim == 2]
    with pytest.raises(BoundExceededError,
                       match=r"state space 2\^2 exceeds bound 3"):
        is_simple(S, bound=3)
    assert is_simple(S, bound=4)


def test_is_simple_over_q_is_exact():
    # Q[Z/3] and Q[Z/5] split as Q + Q(zeta).
    for k in (3, 5):
        assert not is_simple(regular_module(iso_group(zg(k)), Q))
    triv = trivial_module(iso_group(zg(2)), Q)
    assert not is_simple(_direct_sum(triv, triv))
    sims = simple_modules_group(iso_group(zg(8)), Q)
    assert sorted(N.dim for N in sims) == [1, 1, 2, 4]
    assert all(is_simple(N) for N in sims)
    # Two one-dimensional stalks, each simple, in two orbits.
    two_points = disjoint_union(pair_groupoid(1), pair_groupoid(1))
    assert not is_simple(regular_rep(two_points, Q))
    klein = iso_group(group_groupoid(klein_table()))
    with pytest.raises(UnsupportedRingError):
        is_simple(trivial_module(klein, Q))


def _base_change(N):
    """N in the basis P e_i, P = 1 + E_01, so basis vector 1 becomes
    e_0 + e_1."""
    R, d = N.matrix_ring, N.dim
    off = [[R.one if (i, j) == (0, 1) else R.zero for j in range(d)]
           for i in range(d)]
    P = Matrix.identity(R, d) + Matrix.from_rows(R, off)
    P_inv = Matrix.identity(R, d) + Matrix.from_rows(
        R, [[R.coerce(-x) for x in row] for row in off])
    return IsotropyModule(N.group, N.ring, d, [P * M * P_inv for M in N.mats],
                          matrix_ring=N.matrix_ring)


def _simple_by_schur(N, sims):
    """Over Q every module is semisimple (Maschke): N is simple iff it is
    isomorphic to one of the simples."""
    return any(is_isomorphic(N, S) for S in sims)


@pytest.mark.parametrize("n", range(1, 13))
def test_is_simple_over_q_matches_schur_on_cyclic_groups(n):
    G = iso_group(zg(n))
    sims = simple_modules_group(G, Q)
    mods = sims + [_base_change(S) for S in sims] + [regular_module(G, Q)]
    mods += [_direct_sum(A, B)
             for A, B in combinations_with_replacement(sims, 2)]
    for N in mods:
        assert is_simple(N) == _simple_by_schur(N, sims), N


def test_is_simple_over_q_matches_schur_on_induced_modules():
    for name, g in named_pool():
        for u in orbits(g).representatives:
            G = iso_group(g, u)
            sims = simple_modules_group(G, Q)
            mods = list(sims) + [regular_module(G, Q),
                                 _base_change(_direct_sum(sims[0], sims[-1]))]
            for N in mods:
                assert is_simple(induce(g, Q, u, N)) \
                    == _simple_by_schur(N, sims), (name, u, N)


def _zero_module():
    from gpdalg import IsotropyModule
    G = iso_group(zg(2))
    return IsotropyModule(G, F2, 0, [Matrix.zeros(F2, 0, 0)] * 2)


def test_maximal_submodule_frozen():
    # F2[Z2]: unique maximal submodule is the augmentation ideal
    M = regular_module(iso_group(zg(2)), F2)
    assert maximal_submodule(M).basis == ((1, 1),)
    # Z4[Z2]: the radical of the local ring, rank 2 with a 2-torsion row
    M4 = regular_module(iso_group(zg(2)), Z4)
    assert maximal_submodule(M4).basis == ((1, 1), (0, 2))
    with pytest.raises(ConstructionError):
        maximal_submodule(_zero_module())


def test_maximal_submodule_of_simple_is_zero():
    G = iso_group(zg(2))
    assert maximal_submodule(trivial_module(G, F3)).is_zero()


def test_all_submodules_counts():
    # F2[Z2] regular: 0, augmentation ideal, everything
    assert len(all_submodules(regular_module(iso_group(zg(2)), F2))) == 3
    # F2[Z3] regular: ideals of F2 x F4
    assert len(all_submodules(regular_module(iso_group(zg(3)), F2))) == 4
    # Z4[Z2] regular
    subs = all_submodules(regular_module(iso_group(zg(2)), Z4))
    counts = sorted(S.element_count() for S in subs)
    assert counts[0] == 1 and counts[-1] == 16


def test_hom_space_and_isomorphism():
    G = iso_group(zg(2))
    reg = regular_module(G, Q)
    assert hom_space(reg, reg).num_rows == 2
    assert is_isomorphic(reg, reg)
    assert not is_isomorphic(trivial_module(G, Q), sign_module(G, Q))
    assert hom_space(trivial_module(G, Q), sign_module(G, Q)).is_zero()
    regf = regular_module(G, F2)
    assert is_isomorphic(regf, regf)
    assert not is_isomorphic(trivial_module(G, F2), regf)


def _direct_sum(*modules):
    """Block-diagonal sum of isotropy modules over one group."""
    first = modules[0]
    R = first.matrix_ring
    d = sum(N.dim for N in modules)
    mats = []
    for k in range(first.group.order):
        ent = [R.zero] * (d * d)
        off = 0
        for N in modules:
            for i in range(N.dim):
                for j in range(N.dim):
                    ent[(off + i) * d + off + j] = N.mats[k].at(i, j)
            off += N.dim
        mats.append(Matrix(R, d, d, ent))
    return IsotropyModule(first.group, first.ring, d, mats)


def test_isomorphism_of_semisimple_modules_with_multiplicity():
    G2 = iso_group(zg(2))
    for ring in (Q, ring_from_spec("fp:5")):
        reg = regular_module(G2, ring)
        triv = trivial_module(G2, ring)
        assert is_isomorphic(reg, _direct_sum(triv, sign_module(G2, ring)))
        assert not is_isomorphic(reg, _direct_sum(triv, triv))
    G3 = iso_group(zg(3))
    triv, phi3 = simple_modules_group(G3, Q)
    assert (triv.dim, phi3.dim) == (1, 2)
    reg = regular_module(G3, Q)
    assert is_isomorphic(reg, _direct_sum(triv, phi3))
    assert is_isomorphic(_direct_sum(phi3, triv), reg)
    assert not is_isomorphic(reg, _direct_sum(triv, triv, triv))
    assert not is_isomorphic(_direct_sum(phi3, phi3), _direct_sum(phi3, triv,
                                                                  triv))


def test_is_isomorphic_checks_the_algebra_first():
    g = zg(2)
    zero2 = Rep(g, F2, 0, [Matrix.zeros(F2, 0, 0)] * 2)
    zero3 = Rep(g, F3, 0, [Matrix.zeros(F3, 0, 0)] * 2)
    with pytest.raises(RingMismatchError):
        is_isomorphic(zero2, zero3)
    assert is_isomorphic(zero2, zero2)
    with pytest.raises(GroupoidMismatchError):
        is_isomorphic(regular_rep(zg(2), F2), regular_rep(zg(3), F2))
    with pytest.raises(GroupoidMismatchError):
        is_isomorphic(regular_rep(zg(3), Q), regular_rep(pair_groupoid(3), Q))
    # Over Z/4 the trivial module with matrices over F_2 and the one over
    # Z/4 differ in matrix ring only: not isomorphic, no error.
    G = iso_group(zg(2))
    (triv2,) = simple_modules_group(G, Z4)
    assert triv2.matrix_ring == F2
    assert is_isomorphic(triv2, trivial_module(G, Z4)) is False


def test_rep_submodule_and_quotient():
    g = zg(2)
    rho = regular_rep(g, F2)
    aug = Subspace(F2, 2, [(1, 1)])
    sub = rep_submodule(rho, aug)
    assert rep_validate(sub) == [] and sub.dim == 1
    quo = rep_quotient(rho, aug)
    assert rep_validate(quo) == [] and quo.dim == 1
    # t acts as 1 on the quotient
    assert quo.mats[1].to_lists() == [[1]]


def test_quotient_needs_free_complement():
    g = zg(2)
    rho = regular_rep(g, Z4)
    rad = Subspace(Z4, 2, [(1, 1), (0, 2)])
    with pytest.raises(NonFreeQuotientError):
        rep_quotient(rho, rad)


def test_quotient_algebra_rep():
    g = zg(2)
    I = ideal_from_generators(g, F2, [AlgebraElement(g, F2, [1, 1])])
    quo = quotient_algebra_rep(g, F2, I)
    assert quo.dim == 1
    assert rep_validate(quo) == []
    full = quotient_algebra_rep(g, F2, zero_ideal(g, F2))
    assert full.dim == 2


def test_isotropy_rep_round_trip():
    G = iso_group(zg(3))
    N = regular_module(G, F2)
    h, rho = N.groupoid, N
    assert h.n_objects == 1 and h.n_arrows == 3
    assert rep_validate(rho) == []


def test_enumerate_all_ideals_counts():
    # commutative group algebras: ideal = submodule counts from above
    assert len(enumerate_all_ideals(zg(2), F2)) == 3
    assert len(enumerate_all_ideals(zg(3), F2)) == 4
    assert len(enumerate_all_ideals(zg(2), F3)) == 4
    # the 2x2 matrix algebra is simple
    assert len(enumerate_all_ideals(pair_groupoid(2), F2)) == 2
    assert len(enumerate_all_ideals(pair_groupoid(2), F3)) == 2


# Multi-orbit instances with non-trivial isotropy and one-object ones,
# beside the shared pool.
ORBIT_PRODUCT_SPECS = ("group:z3+pair:2", "action:z2:1,0,2",
                       "group:z2+pair:1", "group:z4", "group:z6")


@pytest.mark.parametrize("spec", ["fp:2", "fp:3", "zn:4", "zn:6", "zn:8",
                                  "zn:9"])
def test_enumerate_all_ideals_matches_whole_algebra_reference(spec):
    # The orbit-by-orbit product against the lattice of the whole
    # algebra, wherever the reference's q^m stays within 5,000.
    ring = ring_from_spec(spec)
    pool = named_pool() + [(name, parse_generator_spec(name))
                           for name in ORBIT_PRODUCT_SPECS]
    compared = set()
    for name, g in pool:
        if ring.size ** g.n_arrows > 5000:
            continue
        got = enumerate_all_ideals(g, ring)
        assert got == reference_enumerate_all_ideals(g, ring), name
        compared.add(name)
    # Every ring reaches a multi-orbit instance with non-trivial isotropy
    # (m = 3) and a one-object one.
    assert {"group:z2+pair:1", "z:3"} <= compared


def test_ideal_check_rejects_non_ideal():
    g = zg(2)
    from gpdalg import Ideal
    with pytest.raises(NotAnIdealError):
        Ideal(g, F2, Subspace(F2, 2, [(0, 1)]))


def test_ideal_check_message_over_q():
    # The witness is the repr of a basis row in the normal form over Q:
    # ints where integral, a Fraction only where not.
    g = zg(3)
    with pytest.raises(NotAnIdealError) as info:
        Ideal(g, Q, Subspace(Q, 3, [(1, 0, Fraction(1, 2))]))
    assert str(info.value) == "not closed under left multiplication by " \
        "arrow 1 at (1, 0, Fraction(1, 2))"


def test_ideal_check_names_a_generating_arrow():
    # The witness names a generating arrow that really moves the basis
    # vector out of the span, also after relabelling the arrows.
    rng = random.Random(2)
    for g in (zg(4), pair_groupoid(3), swap3()):
        perm = list(range(g.n_arrows))
        rng.shuffle(perm)
        for h, b in product((g, relabel_arrows(g, perm)), range(g.n_arrows)):
            e = [0] * h.n_arrows
            e[b] = 1
            S = Subspace(F2, h.n_arrows, [e])
            with pytest.raises(NotAnIdealError) as info:
                Ideal(h, F2, S)
            m = re.fullmatch(r"not closed under (left|right) multiplication "
                             r"by arrow (\d+) at (.*)", str(info.value))
            assert m is not None, str(info.value)
            side, a = m.group(1), int(m.group(2))
            assert m.group(3) == repr(S.basis[0])
            assert a in generating_arrows(h)
            f = AlgebraElement(h, F2, S.basis[0])
            x = basis_element(h, F2, a)
            moved = convolve(x, f) if side == "left" else convolve(f, x)
            assert not S.contains(moved.coeffs)


def test_augmentation_generator_is_already_two_sided():
    g = zg(2)
    I = ideal_from_generators(g, F2, [AlgebraElement(g, F2, [1, 1])])
    assert I.basis == ((1, 1),)


def test_swap3_ideal_structure():
    g = swap3()
    # M2(F2) x F2[Z2] has 2 x 3 ideals
    assert len(enumerate_all_ideals(g, F2)) == 6
    assert len(enumerate_all_ideals(g, F3)) == 8


def _assert_same_space(got, want):
    assert got == want and hash(got) == hash(want)
    assert [[type(x) for x in r] for r in got.basis] \
        == [[type(x) for x in r] for r in want.basis]


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7", "zn:12"))
def test_hom_space_matches_all_arrows_reference(spec):
    ring = ring_from_spec(spec)
    for g in (pair_groupoid(2), swap3(),
              disjoint_union(zg(2), pair_groupoid(1))):
        reg = regular_rep(g, ring)
        reps = [reg, gamma_c(sheaf_of(reg))]
        for u in orbits(g).representatives:
            G = iso_group(g, u)
            reps += [induce(g, ring, u, trivial_module(G, ring)),
                     induce(g, ring, u, regular_module(G, ring))]
        for A in reps:
            for B in reps:
                _assert_same_space(hom_space(A, B), reference_hom_space(A, B))
    G = iso_group(group_groupoid(klein_table()))
    mods = [trivial_module(G, ring), regular_module(G, ring)]
    if ring.is_field and ring.size is not None:
        mods += simple_modules_group(G, ring)
    for A in mods:
        for B in mods:
            _assert_same_space(hom_space(A, B), reference_hom_space(A, B))


@pytest.mark.parametrize("spec", RING_SPECS + ("fp:7", "zn:12"))
def test_hom_space_with_a_zero_module(spec):
    # With no intertwining condition, the kernel of the 0 x k system is
    # all of R^k: k = 0 next to a zero module, and k = 4 between sums of
    # trivial modules of the trivial group, whose one arrow acts as 1.
    ring = ring_from_spec(spec)
    G = iso_group(zg(3))
    zero = IsotropyModule(G, ring, 0, [Matrix.zeros(ring, 0, 0)] * G.order)
    g = pair_groupoid(2)
    zrep = Rep(g, ring, 0, [Matrix.zeros(ring, 0, 0)] * g.n_arrows)
    pairs = [(zero, zero), (zero, regular_module(G, ring)),
             (trivial_module(G, ring), zero),
             (zrep, zrep), (zrep, regular_rep(g, ring)),
             (regular_rep(g, ring), zrep)]
    for A, B in pairs:
        assert hom_space(A, B) == reference_hom_space(A, B) \
            == Subspace.full(ring, 0)
    T = trivial_module(iso_group(zg(1)), ring)
    TT = block_sum(T, T)
    assert hom_space(TT, TT) == reference_hom_space(TT, TT) \
        == Subspace.full(ring, 4)


def test_simplicity_over_zn_spins_non_unit_vectors():
    # Over Z/4 the vector (2) spins to a proper submodule: rescaling to a
    # leading 1 is only sound over a field.
    assert not is_simple(regular_module(iso_group(zg(1)), Z4))
    assert is_simple(regular_module(iso_group(zg(1)), F3))


def _brute_submodules(module):
    """Invariant submodules of R^2 (R = Z/p^k), as element sets: each is
    generated by two vectors."""
    ring, d = module.matrix_ring, module.dim
    assert d == 2
    cyclic = {}
    for v in product(list(ring.elements()), repeat=d):
        cyclic.setdefault(frozenset(brute_span(ring, [v], d)), v)
    gens = list(cyclic.values())
    spans = {frozenset(brute_span(ring, [v, w], d))
             for v, w in combinations(gens, 2)} | set(cyclic)
    return {S for S in spans
            if all(M.apply(x) in S for M in module.mats for x in S)}


@pytest.mark.parametrize("spec", ["zn:4", "zn:8"])
def test_all_submodules_over_zn_match_brute_force(spec):
    ring = ring_from_spec(spec)
    trivial = iso_group(zg(1))
    for N in (IsotropyModule(trivial, ring, 2, [Matrix.identity(ring, 2)]),
              regular_module(iso_group(zg(2)), ring)):
        subs = all_submodules(N)
        got = [frozenset(brute_span(ring, S.basis, 2)) for S in subs]
        assert len(set(got)) == len(got)
        assert set(got) == _brute_submodules(N)


# ---------------------------------------------------------------------------
# rep_submodule and rep_quotient through linalg.restrict, against the
# per-column bodies they replaced

RESTRICT_SPECS = ("q", "fp:2", "fp:3", "zn:4", "zn:8", "zn:9")


def _same_rep(a, b):
    return (a.groupoid, a.ring, a.matrix_ring, a.dim, a.mats) \
        == (b.groupoid, b.ring, b.matrix_ring, b.dim, b.mats)


def _outcome(f, *args):
    try:
        return f(*args)
    except GpdalgError as exc:
        return exc


def _same_outcome(got, want):
    if isinstance(want, GpdalgError):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, GpdalgError) and _same_rep(got, want)


@pytest.fixture
def checked_restrictions(monkeypatch):
    """Route ``rep_submodule`` and ``rep_quotient`` inside ``modules``
    through a wrapper that checks each call against the reference body,
    result or error; returns the list of calls made."""
    calls = []

    def checked(new, old):
        def run(rho, space):
            got = _outcome(new, rho, space)
            assert _same_outcome(got, _outcome(old, rho, space))
            calls.append(new.__name__)
            if isinstance(got, GpdalgError):
                raise got
            return got
        return run

    monkeypatch.setattr(modules, "rep_submodule",
                        checked(rep_submodule, reference_rep_submodule))
    monkeypatch.setattr(modules, "rep_quotient",
                        checked(rep_quotient, reference_rep_quotient))
    return calls


@pytest.mark.parametrize("spec", RESTRICT_SPECS)
def test_restrict_matches_every_chop_and_series_step(spec,
                                                     checked_restrictions):
    ring = ring_from_spec(spec)
    for _, g in named_pool():
        if ring.is_field and ring.size is not None:
            modules.composition_factors(regular_rep(g, ring))
        for u in range(g.n_objects):
            simple_modules_group(iso_group(g, u), ring)
    if spec == "q":
        # Cyclotomic companions: no chop, no series.
        assert checked_restrictions == []
    else:
        assert {"rep_submodule", "rep_quotient"} \
            <= set(checked_restrictions)


def _ideal_spaces(g, ring, bound=1 << 12):
    """The principal ideals of the arrow indicators, zero and the whole
    algebra; over a finite ring every ideal when |R|^m is within bound."""
    m = g.n_arrows
    spaces = {Subspace.zero(ring, m), Subspace.full(ring, m)}
    spaces.update(ideal_from_generators(g, ring, [
        tuple(ring.one if b == a else ring.zero for b in range(m))]).space
        for a in range(m))
    if ring.size is not None and ring.size ** m <= bound:
        spaces.update(invariant_lattice(_arrow_actions(g, ring), ring, m,
                                        bound))
    return sorted(spaces, key=lambda s: (s.num_rows, s.basis))


@pytest.mark.parametrize("spec", RESTRICT_SPECS)
def test_restrict_matches_every_algebra_quotient(spec, checked_restrictions):
    ring = ring_from_spec(spec)
    outcomes = set()
    for _, g in named_pool():
        for space in _ideal_spaces(g, ring):
            I = Ideal(g, ring, space, check=False)
            try:
                quo = quotient_algebra_rep(g, ring, I)
            except NonFreeQuotientError:
                outcomes.add("non-free")
                continue
            assert quo.dim == g.n_arrows - space.num_rows
            outcomes.add("quotient")
    assert "quotient" in outcomes
    assert ("non-free" in outcomes) == (not ring.is_field)


@pytest.mark.parametrize("spec", RESTRICT_SPECS)
def test_restrict_keeps_the_error_order(spec):
    # Random subspaces of regular modules: free or not, invariant or not;
    # both bodies give the same module or raise the same error first.
    ring = ring_from_spec(spec)
    rng = random.Random(spec)
    elems = [ring.coerce(x) for x in (0, 0, 1, 2, 3, -1)]
    seen = set()
    for _, g in named_pool():
        rho = regular_rep(g, ring)
        for _ in range(6):
            gens = [tuple(rng.choice(elems) for _ in range(rho.dim))
                    for _ in range(rng.randint(1, 2))]
            space = Subspace(ring, rho.dim, gens)
            for new, old in ((rep_submodule, reference_rep_submodule),
                             (rep_quotient, reference_rep_quotient)):
                got = _outcome(new, rho, space)
                assert _same_outcome(got, _outcome(old, rho, space))
                seen.add(type(got).__name__)
    assert {"Rep", "ConstructionError"} <= seen
    assert ("NonFreeQuotientError" in seen) == (not ring.is_field)


def test_cyclic_modules_match_the_repeated_products():
    # The powers of C stop at its order; every element still gets C^k.
    for k in range(1, 31):
        G = isotropy(zg(k), 0)
        gen = G.generator_if_cyclic()
        want = sorted((reference_cyclic_module(
            G, gen, modules._companion(Q, modules._cyclotomic(d)))
            for d in range(1, k + 1) if k % d == 0),
            key=lambda N: N.sort_key())
        got = simple_modules_group(G, Q)
        assert [(N.dim, N.mats) for N in got] \
            == [(N.dim, N.mats) for N in want], k
        if k % 2 == 0:
            for ring in (Q, F2, F3, Z4):
                minus = Matrix(ring, 1, 1, [-1])
                assert sign_module(G, ring).mats \
                    == reference_cyclic_module(G, gen, minus).mats
