"""The MeatAxe path against the submodule-lattice references.

Norton's test, composition factors, maximal submodules, simple-module
inventories and the primitive-ideal oracle are compared with the
lattice-based bodies kept in conftest.py, over F_2, F_3 and F_5, on
every module of the pool whose state space stays small.
"""

import random
from itertools import permutations, product

import pytest

from gpdalg import (
    BoundExceededError,
    IsotropyModule,
    Matrix,
    Rep,
    group_groupoid,
    is_isomorphic,
    is_simple,
    isotropy,
    maximal_submodule,
    regular_module,
    regular_rep,
    rep_quotient,
    rep_validate,
    ring_from_spec,
    trivial_module,
)
from gpdalg import meataxe, modules
from gpdalg.linalg import poly_at
from gpdalg.meataxe import (
    _divmod,
    _mul,
    charpoly,
    irreducible_factors,
    proper_submodule,
)
from gpdalg.modules import (
    _first_maximal,
    composition_factors,
    is_invariant,
    maximal_submodules,
    simple_modules_group,
)
from gpdalg.suite import primitive_ideal_oracle

from conftest import (
    block_sum,
    klein_table,
    named_pool,
    reference_is_scalar,
    reference_is_simple,
    reference_maximal_submodules,
    reference_primitive_ideal_oracle,
    reference_simple_modules_group,
    zg,
)

FIELDS = ("fp:2", "fp:3", "fp:5")
# Largest state space q^dim the lattice references are run on.
CAP = 4096


def _s3():
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return group_groupoid([[index[tuple(a[b[x]] for x in range(3))]
                            for b in perms] for a in perms])


def _small(module):
    return module.matrix_ring.size ** module.dim <= CAP


def _groups():
    return [("z:%d" % k, zg(k)) for k in range(1, 8)] + [
        ("s3", _s3()), ("klein", group_groupoid(klein_table()))]


def _module_pool(F):
    """Regular modules of groups and groupoids, their composition factors
    (the non-absolutely-irreducible F_3[Z7] dim 6, F_2[Z3] dim 2 and
    F_2[Z5] dim 4 among them), and direct sums of those."""
    out = []
    for name, g in _groups():
        reg = regular_module(isotropy(g, 0), F)
        out.append(("%s regular" % name, reg))
        for i, S in enumerate(composition_factors(reg)):
            out.append(("%s simple %d" % (name, i), S))
            if S.dim > 1:
                out.append(("%s simple %d twice" % (name, i),
                            block_sum(S, S)))
        triv = trivial_module(isotropy(g, 0), F)
        out.append(("%s regular+trivial" % name, block_sum(reg, triv)))
        out.append(("%s trivial^3" % name, block_sum(triv, triv, triv)))
    for name, g in named_pool():
        out.append(("%s regular_rep" % name, regular_rep(g, F)))
    return [(name, M) for name, M in out if _small(M)]


@pytest.mark.parametrize("spec", FIELDS)
def test_maximal_submodules_match_the_lattice(spec):
    F = ring_from_spec(spec)
    for name, M in _module_pool(F):
        want = reference_maximal_submodules(M)
        assert maximal_submodules(M) == want, name
        assert maximal_submodule(M) == want[0], name
        # The composition-series step of simple_modules_group.
        simples = composition_factors(M)
        N, i = _first_maximal(M, simples, 1 << 20)
        assert N == want[0], name
        assert M.dim - N.num_rows == simples[i].dim, name


@pytest.mark.parametrize("spec", FIELDS)
def test_norton_matches_the_lattice(spec):
    F = ring_from_spec(spec)
    for name, M in _module_pool(F):
        U = proper_submodule(M.action_mats(), F, M.dim, 1 << 20)
        simple = reference_is_simple(M)
        assert (U is None) == simple, name
        if U is not None:
            assert 0 < U.num_rows < M.dim and is_invariant(M, U), name
        assert is_simple(M) == simple, name


@pytest.mark.parametrize("spec", FIELDS)
def test_simple_modules_group_matches_the_lattice(spec):
    F = ring_from_spec(spec)
    for name, g in _groups():
        G = isotropy(g, 0)
        if F.size ** G.order > CAP:
            continue
        got = simple_modules_group(G, F)
        want = reference_simple_modules_group(G, F)
        assert [(N.dim, N.mats) for N in got] \
            == [(N.dim, N.mats) for N in want], name


def test_the_walk_stops_once_every_factor_has_its_top(monkeypatch):
    # F_2[Z/8] is uniserial with the trivial module as its one composition
    # factor: the first step finds its top, and the seven steps down the
    # rest of the series would only discard their results.
    F = ring_from_spec("fp:2")
    G = isotropy(zg(8), 0)
    dims = []
    first_maximal = modules._first_maximal

    def counted(M, simples, bound):
        dims.append(M.dim)
        return first_maximal(M, simples, bound)

    monkeypatch.setattr(modules, "_first_maximal", counted)
    got = simple_modules_group(G, F)
    assert dims == [8]
    assert [(N.dim, N.mats) for N in got] == [
        (N.dim, N.mats) for N in reference_simple_modules_group(G, F)]


@pytest.mark.parametrize("spec", FIELDS)
def test_oracle_matches_the_lattice(spec):
    F = ring_from_spec(spec)
    pool = named_pool() + _groups()
    for name, g in pool:
        if F.size ** g.n_arrows > CAP:
            continue
        assert primitive_ideal_oracle(g, F) \
            == reference_primitive_ideal_oracle(g, F), name


def test_composition_factors_are_simple_and_distinct():
    for spec in FIELDS:
        F = ring_from_spec(spec)
        for name, M in _module_pool(F):
            factors = composition_factors(M)
            assert all(reference_is_simple(S) for S in factors), name
            for i, S in enumerate(factors):
                assert not any(_isomorphic(S, T) for T in factors[:i]), name
            # Every simple quotient of M is among them.
            for N in reference_maximal_submodules(M):
                top = rep_quotient(M, N)
                assert any(_isomorphic(top, S) for S in factors), name


def _isomorphic(A, B):
    # The factor of an isotropy module is a Rep of its one-object
    # groupoid; compare both as such.
    return is_isomorphic(*(Rep(M.groupoid, M.ring, M.dim, M.mats,
                               matrix_ring=M.matrix_ring) for M in (A, B)))


def test_non_absolutely_irreducible_simples_are_decided_at_once():
    # F_3[Z7] has a simple of dim 6, F_2[Z3] one of dim 2 and F_2[Z5] one
    # of dim 4; each generator's characteristic polynomial is irreducible
    # of full degree, so Norton's test decides without enumerating.
    for k, spec, dim in ((7, "fp:3", 6), (3, "fp:2", 2), (5, "fp:2", 4)):
        F = ring_from_spec(spec)
        sims = composition_factors(regular_module(isotropy(zg(k), 0), F))
        (S,) = [S for S in sims if S.dim == dim]
        assert proper_submodule(S.action_mats(), F, S.dim, 1) is None


def test_modular_regular_modules_split():
    # F_2[Z4] and F_3[Z6] are not semisimple: one and two simples.
    for k, spec, dims in ((4, "fp:2", [1]), (6, "fp:3", [1, 1])):
        F = ring_from_spec(spec)
        reg = regular_module(isotropy(zg(k), 0), F)
        assert sorted(S.dim for S in composition_factors(reg)) == dims
        assert [N.dim for N in simple_modules_group(isotropy(zg(k), 0), F)] \
            == dims


def _dual_spin_module():
    """The uniserial F_3[S3]-module with top sign and socle trivial.  A
    transposition t acts by -1 on the top and by 1 on the socle, so
    K = ker(t + 1) is a line off the socle: its spin is the whole
    module, dim K = deg(x + 1), and only the dual spin finds the socle."""
    F3 = ring_from_spec("fp:3")
    G = isotropy(_s3(), 0)
    perms = list(permutations(range(3)))
    sgn = [1 if sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
           % 2 == 0 else 2 for p in perms]
    # A derivation c(gh) = c(g) + sgn(g) c(h) that is not inner (nonzero
    # on the 3-cycles) makes g -> [[1, 0], [c(g), sgn(g)]] the module
    # with top trivial and socle sign; its contragredient is the one.
    n = G.order
    for c in product(range(3), repeat=n):
        if all(c[G.table[g][h]] == (c[g] + sgn[g] * c[h]) % 3
               for g in range(n) for h in range(n)) \
                and any(c[g] for g in range(n) if sgn[g] == 1):
            break
    mats = [Matrix(F3, 2, 2, [1, 0, c[g], sgn[g]]) for g in range(n)]
    return IsotropyModule(G, F3, 2, [mats[G.inv[g]].transpose()
                                     for g in range(n)])


def test_dual_spin_finds_the_socle():
    M = _dual_spin_module()
    F = M.matrix_ring
    assert rep_validate(M) == []
    assert not reference_is_simple(M)
    assert len(reference_maximal_submodules(M)) == 1
    assert not is_simple(M)
    U = proper_submodule(M.action_mats(), F, M.dim, 1 << 20)
    assert U is not None and is_invariant(M, U)


def test_fallback_enumerates_the_kernel(monkeypatch):
    # With the word sequence cut to the identity, no word has
    # dim K = deg f: every line of K is spun, exactly, against the bound.
    F = ring_from_spec("fp:2")
    monkeypatch.setattr(meataxe, "_words",
                        lambda maps: iter([Matrix.identity(F,
                                                           maps[0].nrows)]))
    G = isotropy(zg(3), 0)
    (S,) = [S for S in composition_factors(regular_module(G, F))
            if S.dim == 2]
    assert proper_submodule(S.action_mats(), F, 2, 4) is None
    with pytest.raises(BoundExceededError,
                       match=r"state space 2\^2 exceeds bound 3"):
        proper_submodule(S.action_mats(), F, 2, 3)
    reg = regular_module(G, F)
    U = proper_submodule(reg.action_mats(), F, 3, 8)
    assert U is not None and is_invariant(reg, U)


def test_scalar_maps_split_off_a_line():
    F = ring_from_spec("fp:3")
    maps = [Matrix.identity(F, 3), Matrix(F, 3, 3, [2, 0, 0, 0, 2, 0,
                                                    0, 0, 2])]
    assert proper_submodule(maps, F, 3, 1).basis == ((1, 0, 0),)
    assert proper_submodule(maps[:1], F, 1, 1) is None


@pytest.mark.parametrize("spec", FIELDS)
def test_is_scalar_matches_the_dense_test(spec):
    # _is_scalar reads the stored nonzero pairs; the reference scans
    # every dense entry.
    F = ring_from_spec(spec)
    rng = random.Random("scalar/" + spec)
    mats = []
    for d in range(1, 5):
        mats.append(Matrix.zeros(F, d, d))
        mats += [Matrix(F, d, d, [c if i == j else 0 for i in range(d)
                                  for j in range(d)])
                 for c in range(1, F.size)]
        if d > 1:
            diag = [1] * (d - 1) + [0]
            mats.append(Matrix(F, d, d, [diag[i] if i == j else 0
                                         for i in range(d) for j in range(d)]))
            mats.append(Matrix(F, d, d, [1 if i == j or (i, j) == (0, d - 1)
                                         else 0 for i in range(d)
                                         for j in range(d)]))
        mats += [Matrix(F, d, d, [rng.randrange(F.size) if rng.random() < 0.5
                                  else 0 for _ in range(d * d)])
                 for _ in range(20)]
    got = [meataxe._is_scalar(M) for M in mats]
    assert got == [reference_is_scalar(M) for M in mats]
    assert True in got and False in got


def _is_irreducible(f, p):
    n = len(f) - 1
    return not any(not _divmod(f, list(t) + [1], p)[1]
                   for d in range(1, n // 2 + 1)
                   for t in product(range(p), repeat=d))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducible_factors_match_trial_division(p):
    rng = random.Random(p)
    for _ in range(150):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]
        # Square the polynomial now and then to exercise repeated and
        # p-th power factors.
        if rng.random() < 0.3:
            f = _mul(f, f, p)
        factors = irreducible_factors(f, p)
        rest = f
        for h in factors:
            assert h[-1] == 1 and _is_irreducible(h, p), (f, h)
            q, r = _divmod(rest, h, p)
            assert not r, (f, h)
            while not r:
                rest = q
                q, r = _divmod(rest, h, p)
        assert rest == [1], (f, factors)
        assert len({tuple(h) for h in factors}) == len(factors)


def test_large_primes_are_probed_without_listing_the_field():
    # 2^61 - 1: the probes of the equal-degree split are read off a
    # counter, so F_p is never listed and the first probe, x, splits.
    p = 2 ** 61 - 1
    assert irreducible_factors([p - 1, 0, 1], p) == [[1, 1], [p - 1, 1]]
    F = ring_from_spec("fp:%d" % p)
    assert not is_simple(regular_rep(zg(2), F))


def _det(rows, p):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_charpoly_is_the_determinant(p):
    rng = random.Random(10 + p)
    F = ring_from_spec("fp:%d" % p)
    for _ in range(60):
        n = rng.randrange(1, 6)
        M = Matrix(F, n, n, [rng.randrange(p) if rng.random() < 0.6 else 0
                             for _ in range(n * n)])
        cp = charpoly(M)
        assert len(cp) == n + 1 and cp[-1] == 1
        assert poly_at(cp, M).is_zero()
        # det(c - M) at every c in F_p.
        for c in range(p):
            rows = [[((c if i == j else 0) - M.at(i, j)) % p
                     for j in range(n)] for i in range(n)]
            assert sum(a * c ** k for k, a in enumerate(cp)) % p \
                == _det(rows, p)
