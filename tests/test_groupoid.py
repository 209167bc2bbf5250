import itertools
import random

import pytest

from gpdalg import (
    ConstructionError,
    FiniteGroupoid,
    Matrix,
    all_bisections,
    bisection,
    bisection_inv,
    bisection_mul,
    cyclic_table,
    disjoint_union,
    group_groupoid,
    identity_bisection,
    is_bisection,
    isotropy,
    orbits,
    pair_groupoid,
    relabel_arrows,
    ring_from_spec,
    validate,
)
from gpdalg.cli import parse_generator_spec
from gpdalg.groupoid import (_associative, _failing_triples, _group_table,
                             _table_groupoid, generating_arrows,
                             group_generators, validate_group_table)
from gpdalg.ideals import _arrow_actions

from conftest import (cycle3, klein_table, layout_pool, named_pool,
                      reference_arrow_actions, reference_arrows_from,
                      reference_arrows_from_to, reference_arrows_into,
                      reference_failing_triples, reference_group_table,
                      reference_missing_pairs, reference_orbits,
                      reference_validate, swap2, swap3, zg)


def test_pool_validates():
    for name, g in named_pool():
        assert validate(g) == [], name


def test_pair_groupoid_shape():
    g = pair_groupoid(3)
    assert g.n_objects == 3 and g.n_arrows == 9
    assert orbits(g).classes == ((0, 1, 2),)
    for u in range(3):
        assert g.loops_at(u) == (g.unit(u),)
    # one arrow between every ordered pair of objects
    for v in range(3):
        for w in range(3):
            assert len(g.arrows_from_to(v, w)) == 1
    with pytest.raises(ConstructionError):
        pair_groupoid(0)


def test_group_groupoid_shape():
    g = zg(4)
    assert g.n_objects == 1 and g.n_arrows == 4
    G = isotropy(g, 0)
    assert G.order == 4
    assert G.element_order(G.generator_if_cyclic()) == 4
    bad = [[0, 1], [1, 1]]
    with pytest.raises(ConstructionError):
        group_groupoid(bad)


def test_klein_group_is_not_cyclic():
    g = group_groupoid(klein_table())
    assert validate(g) == []
    G = isotropy(g, 0)
    assert G.order == 4
    assert G.generator_if_cyclic() is None
    assert sorted(G.element_order(x) for x in range(4)) == [1, 2, 2, 2]


def test_action_groupoid_shape():
    g = swap3()
    assert g.n_objects == 3 and g.n_arrows == 6
    assert orbits(g).classes == ((0, 1), (2,))
    assert orbits(g).representatives == (0, 2)
    assert isotropy(g, 2).order == 2
    assert isotropy(g, 0).order == 1
    # a non-action: images that are not permutations
    with pytest.raises(ConstructionError):
        from gpdalg import action_groupoid
        action_groupoid(cyclic_table(2), [(0, 1), (0, 0)])


def test_group_table_errors_keep_their_messages():
    # The identity and the inverses are found once, for the axiom checks
    # and for the action groupoid's units and inverse arrows alike.
    from gpdalg import action_groupoid
    from gpdalg.groupoid import validate_group_table
    assert validate_group_table([[0, 1], [1]]) == ["table is not square"]
    assert validate_group_table([[0, 2], [1, 0]]) \
        == ["table entry 2 out of range"]
    assert validate_group_table([[1, 0], [0, 0]]) == ["no identity element"]
    assert validate_group_table([[0, 1], [1, 1]]) \
        == ["element 1 has no inverse"]
    assert validate_group_table([[0, 1, 2, 3], [1, 0, 1, 1], [2, 2, 0, 2],
                                 [3, 3, 3, 0]]) \
        == ["associativity fails at (1,1,2)"]
    with pytest.raises(ConstructionError,
                       match="^bad group table: no identity element$"):
        action_groupoid([[1, 0], [0, 0]], [(0,), (0,)])
    with pytest.raises(ConstructionError,
                       match="^identity element must act trivially$"):
        action_groupoid(cyclic_table(2), [(1, 0), (0, 1)])
    for table in (cyclic_table(5), klein_table()):
        g = action_groupoid(table, [(0,)] * len(table))
        assert validate(g) == []
        assert all(table[a][g.inv[a]] == g.unit_of[0]
                   for a in range(len(table)))


def groupoids_isomorphic(g, h):
    """Brute-force isomorphism search, for tiny instances only."""
    if g.n_objects != h.n_objects or g.n_arrows != h.n_arrows:
        return False
    for op in itertools.permutations(range(g.n_objects)):
        for ap in itertools.permutations(range(g.n_arrows)):
            if any(h.src[ap[a]] != op[g.src[a]]
                   or h.tgt[ap[a]] != op[g.tgt[a]]
                   for a in range(g.n_arrows)):
                continue
            if any(h.unit_of[op[u]] != ap[g.unit_of[u]]
                   for u in range(g.n_objects)):
                continue
            if all(h.comp.get((ap[a], ap[b])) == ap[c]
                   for (a, b), c in g.comp.items()):
                return True
    return False


def test_free_swap_action_is_pair_groupoid():
    assert groupoids_isomorphic(swap2(), pair_groupoid(2))
    assert not groupoids_isomorphic(swap2(), zg(4))


def test_cycle3_is_free_and_transitive():
    g = cycle3()
    assert orbits(g).classes == ((0, 1, 2),)
    for u in range(3):
        assert isotropy(g, u).order == 1


def test_disjoint_union():
    g = disjoint_union(zg(2), pair_groupoid(2))
    assert g.n_objects == 3 and g.n_arrows == 6
    assert validate(g) == []
    assert orbits(g).classes == ((0,), (1, 2))
    assert isotropy(g, 0).order == 2
    assert isotropy(g, 1).order == 1


def test_json_round_trip():
    for name, g in named_pool():
        g2 = FiniteGroupoid.from_json_dict(g.to_json_dict())
        assert g2 == g, name
    with pytest.raises(ConstructionError):
        FiniteGroupoid.from_json_dict({"objects": 1})


def test_json_fields_must_be_integers():
    for field, value in (("objects", 1.9), ("objects", True),
                         ("units", [True]), ("inv", [0, 1.0]),
                         ("comp", [[0, 0, "0"], [0, 1, 1], [1, 0, 1],
                                   [1, 1, 0]]),
                         ("arrows", [{"d": 0, "r": 0.2}, {"d": 0, "r": 0}]),
                         ("arrows", [{"d": "0", "r": 0}, {"d": 0, "r": 0}])):
        with pytest.raises(ConstructionError, match="not an integer"):
            planted(field, value)
    assert validate(planted("objects", 1)) == []


def planted(field, value):
    data = zg(2).to_json_dict()
    data[field] = value
    return FiniteGroupoid.from_json_dict(data)


def test_validate_catches_planted_defects():
    # wrong inverse: t^-1 claimed to be the unit
    g = planted("inv", [0, 0])
    assert any("inv" in msg for msg in validate(g))
    # composition table with a wrong product breaks associativity or units
    g = planted("comp", [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert validate(g) != []
    # missing composable pair
    g = planted("comp", [[0, 0, 0], [0, 1, 1], [1, 0, 1]])
    assert any("missing" in msg for msg in validate(g))
    # unit with the wrong endpoint
    data = pair_groupoid(2).to_json_dict()
    data["units"] = [1, 3]
    assert validate(FiniteGroupoid.from_json_dict(data)) != []


def test_orbits_match_union_find():
    rng = random.Random(7)
    pool = [g for _, g in named_pool()]
    pool += [disjoint_union(g, h) for g in pool[5:9] for h in pool[7:11]]
    pool += [parse_generator_spec(spec) for spec in
             ("action:z4:1,0,3,2", "action:z6:1,2,0,4,3", "pair:3+group:z2",
              "action:z2:1,0,2+pair:2+action:z3:1,2,0")]
    for g in list(pool):
        perm = list(range(g.n_arrows))
        rng.shuffle(perm)
        pool.append(relabel_arrows(g, perm))
    for g in pool:
        orb = orbits(g)
        assert orb is orbits(g)
        assert (orb.orbit_of, orb.classes) == reference_orbits(g), g
        assert orb.representatives == tuple(c[0] for c in orb.classes)


def test_relabel_preserves_structure():
    rng = random.Random(3)
    for name, g in named_pool()[:8]:
        perm = list(range(g.n_arrows))
        rng.shuffle(perm)
        h = relabel_arrows(g, perm)
        assert validate(h) == [], name
        assert orbits(h).classes == orbits(g).classes
        for u in range(g.n_objects):
            assert isotropy(h, u).order == isotropy(g, u).order


def _composites(g, arrows):
    """Every arrow reachable by composing the given ones."""
    reached = set(arrows)
    frontier = list(reached)
    while frontier:
        a = frontier.pop()
        for b in list(reached):
            for c in (g.comp.get((a, b)), g.comp.get((b, a))):
                if c is not None and c not in reached:
                    reached.add(c)
                    frontier.append(c)
    return reached


def test_generating_arrows_generate():
    base = [g for _, g in named_pool()]
    base += [parse_generator_spec(spec) for spec in
             ("action:z2:1,0,2+group:z10", "group:z9+pair:3")]
    rng = random.Random(5)
    pool = list(base)
    for g in base:
        for _ in range(2):
            perm = list(range(g.n_arrows))
            rng.shuffle(perm)
            pool.append(relabel_arrows(g, perm))
    for g in pool:
        gens = generating_arrows(g)
        assert list(gens) == sorted(set(gens))
        assert _composites(g, gens) == set(range(g.n_arrows)), g


def test_generating_arrow_counts():
    for n in range(2, 13):
        assert len(generating_arrows(zg(n))) == 2
    for n in range(1, 7):
        assert len(generating_arrows(pair_groupoid(n))) == 3 * n - 2
    # The arrow actions are the distinct non-identity matrices among the
    # interleaved left and right actions, each labelled by its first copy.
    for name, g in named_pool() + layout_pool():
        for spec in ("q", "fp:2"):
            ring = ring_from_spec(spec)
            labelled = {}
            for i, M in enumerate(reference_arrow_actions(g, ring)):
                labelled.setdefault(M, ("right" if i % 2 else "left",
                                        generating_arrows(g)[i // 2]))
            labelled.pop(Matrix.identity(ring, g.n_arrows), None)
            assert len(_arrow_actions(g, ring)) == len(labelled), name
            assert list(_arrow_actions(g, ring).items()) \
                == list(labelled.items()), name
    Q = ring_from_spec("q")
    assert len(_arrow_actions(zg(18), Q)) == 1
    assert len(_arrow_actions(pair_groupoid(5), Q)) == 26


def test_group_generators_klein():
    g = group_groupoid(klein_table())
    G = isotropy(g, 0)
    gens = group_generators(G)
    assert len(gens) == 2
    assert _composites(g, [G.arrow_ids[i] for i in gens]) \
        == set(range(G.order))


def test_isotropy_constant_on_orbits():
    for name, g in named_pool():
        orb = orbits(g)
        for cls in orb.classes:
            orders = {isotropy(g, u).order for u in cls}
            assert len(orders) == 1, name


def test_isotropy_group_axioms():
    for g in (zg(4), swap3(), group_groupoid(klein_table())):
        for u in range(g.n_objects):
            G = isotropy(g, u)
            k = G.order
            e = G.identity
            for i in range(k):
                assert G.table[e][i] == i and G.table[i][e] == i
                assert G.table[i][G.inv[i]] == e
                for j in range(k):
                    for l in range(k):
                        assert G.table[G.table[i][j]][l] \
                            == G.table[i][G.table[j][l]]


def test_bisection_basics():
    g = pair_groupoid(2)
    # arrows 1 and 2 are (0<-1) and (1<-0): a global swap bisection
    U = bisection(g, [1, 2])
    V = identity_bisection(g)
    assert bisection_mul(g, U, V) == U
    assert bisection_mul(g, V, U) == U
    assert bisection_mul(g, U, U) == V
    assert bisection_inv(g, U) == U
    assert not is_bisection(g, [0, 1])  # both target object 0
    with pytest.raises(Exception):
        bisection(g, [0, 1])


def test_bisection_inverse_monoid_laws():
    g = swap3()
    bis = all_bisections(g)
    assert identity_bisection(g) in bis
    for U in bis:
        Ui = bisection_inv(g, U)
        assert bisection_mul(g, bisection_mul(g, U, Ui), U) == U
    for U, V, W in itertools.islice(itertools.product(bis, repeat=3), 3000):
        left = bisection_mul(g, bisection_mul(g, U, V), W)
        right = bisection_mul(g, U, bisection_mul(g, V, W))
        assert left == right


def test_all_bisections_closed_under_product():
    g = pair_groupoid(2)
    bis = set(all_bisections(g))
    for U in bis:
        assert bisection_inv(g, U) in bis
        for V in bis:
            assert bisection_mul(g, U, V) in bis


def test_isotropy_is_built_once_per_object():
    g = swap3()
    assert isotropy(g, 2) is isotropy(g, 2)
    assert isotropy(g, 0) is not isotropy(g, 1)
    # An equal groupoid built separately has its own memo.
    assert isotropy(swap3(), 2) == isotropy(g, 2)
    assert isotropy(swap3(), 2) is not isotropy(g, 2)


def test_primitive_single_builds_arrow_actions_once(monkeypatch, capsys):
    # Each isotropy group's one-object groupoid is built once, so the
    # arrow actions memoised on it are too: one build per (groupoid, ring).
    import gpdalg.ideals
    from gpdalg.cli import main

    builds = []
    real = gpdalg.ideals.right_mult_matrix

    def recording(g, ring, a):
        builds.append((g, ring, a))
        return real(g, ring, a)

    monkeypatch.setattr(gpdalg.ideals, "right_mult_matrix", recording)
    assert main(["verify", "primitive-single", "--gen",
                 "action:z2:1,0,2+group:z10", "--ring", "q"]) == 0
    capsys.readouterr()
    assert builds and len(builds) == len(set(builds))


def _s3_table():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(3))] for b in perms]
            for a in perms]


def test_light_test_matches_the_triple_scan_on_tables():
    # Valid tables, then copies with two entries swapped: the error list,
    # the identity and the inverses are the triple scan's.
    rng = random.Random("light/tables")
    tables = [cyclic_table(k) for k in range(1, 13)]
    tables += [klein_table(), _s3_table()]
    failed = 0
    for table in tables:
        assert _group_table(table) == reference_group_table(table)
        assert validate_group_table(table) == []
        cells = [(i, j) for i in range(len(table)) for j in range(len(table))]
        for _ in range(min(30, len(cells))):
            t = [list(row) for row in table]
            (a, b), (c, d) = rng.sample(cells, 2) if len(cells) > 1 \
                else (cells[0], cells[0])
            t[a][b], t[c][d] = t[c][d], t[a][b]
            want = reference_group_table(t)
            assert _group_table(t) == want
            assert validate_group_table(t) == want[0]
            failed += any("associativity" in e for e in want[0])
    assert failed > 50


def _broken_copies(g, rng, count):
    # Copies with the composites of two composable pairs swapped: with
    # equal endpoints the structural checks pass and the laws may fail.
    pairs = sorted(g.comp)
    arrows = list(zip(g.src, g.tgt))
    for _ in range(count):
        p, q = rng.sample(pairs, 2)
        comp = dict(g.comp)
        comp[p], comp[q] = comp[q], comp[p]
        yield FiniteGroupoid(g.n_objects, arrows, g.unit_of, comp, g.inv)


def test_light_test_matches_the_triple_scan_on_groupoids():
    rng = random.Random("light/groupoids")
    pool = named_pool() + layout_pool()
    pool += [(spec, parse_generator_spec(spec))
             for spec in ("group:z12", "pair:4", "group:z3+pair:2")]
    failed = 0
    for name, g in list(pool):
        for seed in range(2):
            perm = list(range(g.n_arrows))
            random.Random("%s/%d" % (name, seed)).shuffle(perm)
            pool.append((name + "/relabelled", relabel_arrows(g, perm)))
    for name, g in pool:
        assert validate(g) == reference_validate(g) == [], name
        if len(g.comp) < 2:
            continue
        for h in _broken_copies(g, rng, 12):
            want = reference_validate(h)
            assert validate(h) == want, name
            failed += any("associativity" in e for e in want)
    assert failed > 50


def _swapped_table(table, rng):
    t = [list(row) for row in table]
    cells = [(i, j) for i in range(len(t)) for j in range(len(t))]
    (a, b), (c, d) = rng.sample(cells, 2)
    t[a][b], t[c][d] = t[c][d], t[a][b]
    return t


def _corrupted(g, rng):
    # Swapped and deleted composites, then one arrow's domain or range
    # moved to -1 or past the last object.
    arrows = list(zip(g.src, g.tgt))
    pairs = sorted(g.comp)
    if len(pairs) >= 2:
        comp = dict(g.comp)
        p, q = rng.sample(pairs, 2)
        comp[p], comp[q] = comp[q], comp[p]
        yield FiniteGroupoid(g.n_objects, arrows, g.unit_of, comp, g.inv)
        comp = dict(g.comp)
        for key in rng.sample(pairs, 2):
            del comp[key]
        yield FiniteGroupoid(g.n_objects, arrows, g.unit_of, comp, g.inv)
    for end in (-1, g.n_objects + 1):
        bent = list(arrows)
        a = rng.randrange(len(bent))
        bent[a] = (end, bent[a][1]) if rng.random() < 0.5 \
            else (bent[a][0], end)
        yield FiniteGroupoid(g.n_objects, bent, g.unit_of, g.comp, g.inv)


def _composites_well_placed(h):
    # validate reaches the group laws: endpoints in range, and comp
    # defined exactly on the composable pairs with the right endpoints.
    return all(0 <= x < h.n_objects for x in h.src + h.tgt) \
        and not reference_missing_pairs(h) \
        and all(h.src[a] == h.tgt[b] and h.src[c] == h.src[b]
                and h.tgt[c] == h.tgt[a] for (a, b), c in h.comp.items())


def test_arrow_index_matches_the_scans():
    # The endpoint index against the scans it replaced, on the pool
    # relabelled by seed, corrupted copies of it, and disjoint unions
    # with one-object groupoids of tables that are not associative.
    rng = random.Random("index")
    base = named_pool() + layout_pool()
    base += [(spec, parse_generator_spec(spec))
             for spec in ("pair:4", "group:z3+pair:2", "action:z2:1,0,2")]
    pool = list(base)
    for name, g in base:
        for seed in range(2):
            perm = list(range(g.n_arrows))
            random.Random("%s/%d" % (name, seed)).shuffle(perm)
            pool.append((name + "/relabelled", relabel_arrows(g, perm)))
    for name, g in list(pool):
        pool += [(name + "/corrupted", h) for h in _corrupted(g, rng)]
    for table in (cyclic_table(4), cyclic_table(6), klein_table()):
        _, ident, inv = _group_table(table)
        for _ in range(6):
            t = _swapped_table(table, rng)
            assert validate_group_table(t) == reference_group_table(t)[0]
            bad = _table_groupoid(t, ident, inv)
            pool += [("table+pair:2", disjoint_union(bad, pair_groupoid(2))),
                     ("swap2+table", disjoint_union(swap2(), bad))]
    seen = {"missing": 0, "out-of-range": 0, "associativity": 0}
    for name, h in pool:
        ends = set(h.src) | set(h.tgt) | set(range(h.n_objects)) | {-2}
        for v in ends:
            assert h.arrows_into(v) == reference_arrows_into(h, v), name
            assert h.arrows_from(v) == reference_arrows_from(h, v), name
            for w in ends:
                assert h.arrows_from_to(v, w) \
                    == reference_arrows_from_to(h, v, w), name
        errs = validate(h)
        assert errs == reference_validate(h), name
        assert [e for e in errs if e.startswith("missing")] \
            == ["missing composition for composable pair (%d,%d)" % ab
                for ab in reference_missing_pairs(h)], name
        if _composites_well_placed(h):
            want = list(reference_failing_triples(h.src, h.tgt, h.comp))
            assert list(_failing_triples(h)) == want, name
            assert _associative(h) == (want == []), name
        for kind in seen:
            seen[kind] += any(kind in e for e in errs)
    assert min(seen.values()) >= 10, seen
