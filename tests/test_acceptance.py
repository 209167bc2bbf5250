"""Acceptance gate: one test per shipped guarantee, exact arithmetic
throughout.  Each test prints a single PASS line on success (visible
under pytest -v as one line per criterion)."""

import json

from gpdalg import (
    AlgebraElement,
    all_bisections,
    annihilator,
    bisection_mul,
    disintegration_iso,
    enumerate_all_ideals,
    enumerate_primitive_ideals,
    gamma_c,
    disjoint_union,
    ideal_equal,
    ideal_from_generators,
    indicator,
    induce,
    induced_annihilator_direct,
    is_isomorphic,
    is_simple,
    isotropy,
    orbits,
    pair_groupoid,
    primitive_ideal_oracle,
    quotient_algebra_rep,
    regular_rep,
    ring_from_spec,
    sheaf_of,
    sign_module,
    simple_modules_group,
    trivial_module,
    verify_ideal_is_intersection,
    zero_ideal,
)
from gpdalg.cli import main

from conftest import named_pool, swap2, swap3, zg

Q = ring_from_spec("q")
F2 = ring_from_spec("fp:2")
F3 = ring_from_spec("fp:3")
F5 = ring_from_spec("fp:5")
Z4 = ring_from_spec("zn:4")


def test_ac1_bisection_convolution_exhaustive():
    corpus = [pair_groupoid(1), pair_groupoid(2), zg(2), zg(3), zg(4),
              swap2(), swap3()]
    pairs = 0
    for g in corpus:
        assert g.n_arrows <= 6
        bis = all_bisections(g)
        for ring in (Q, F2):
            for U in bis:
                for V in bis:
                    assert indicator(g, ring, U) * indicator(g, ring, V) \
                        == indicator(g, ring, bisection_mul(g, U, V))
                    pairs += 1
    print("AC1 PASS bisection convolution exhaustive on %d pairs" % pairs)


def test_ac2_induced_annihilator_dual_routes():
    cases = 0
    rings_seen = set()
    for name, g in named_pool():
        orb = orbits(g)
        for ring in (Q, F2, F3, Z4):
            for u in orb.representatives:
                G = isotropy(g, u)
                mods = [trivial_module(G, ring)]
                if G.order % 2 == 0 and G.generator_if_cyclic() is not None:
                    mods.append(sign_module(G, ring))
                if ring is not Q and G.order <= 4:
                    mods.extend(simple_modules_group(G, ring))
                for N in mods:
                    direct = induced_annihilator_direct(g, ring, u, N)
                    built = annihilator(induce(g, ring, u, N))
                    assert ideal_equal(direct, built), (name, u,
                                                        ring.spec_string())
                    cases += 1
                    rings_seen.add(ring.spec_string())
    assert cases >= 50
    assert rings_seen == {"q", "fp:2", "fp:3", "zn:4"}
    print("AC2 PASS dual annihilator routes agree on %d instances" % cases)


def test_ac3_induced_simples_stay_simple_across_orbits():
    corpus = [("z:2", zg(2)), ("z:3", zg(3)), ("z:4", zg(4)),
              ("swap3", swap3()), ("pair:2", pair_groupoid(2)),
              ("z2+pt", disjoint_union(zg(2), pair_groupoid(1)))]
    checked = 0
    for name, g in corpus:
        orb = orbits(g)
        for ring in (F2, F3, Z4, Q):
            induced_by_orbit = []
            for u in orb.representatives:
                G = isotropy(g, u)
                if ring is Q and G.generator_if_cyclic() is None:
                    continue
                for N in simple_modules_group(G, ring):
                    rho = induce(g, ring, u, N)
                    assert is_simple(rho), (name, ring.spec_string(), u)
                    induced_by_orbit.append((u, rho))
                    checked += 1
            for i in range(len(induced_by_orbit)):
                for j in range(i + 1, len(induced_by_orbit)):
                    ui, ri = induced_by_orbit[i]
                    uj, rj = induced_by_orbit[j]
                    if ui != uj:
                        assert not is_isomorphic(ri, rj), (name, ui, uj)
    assert checked >= 20
    print("AC3 PASS %d induced simples verified simple and "
          "orbit-separated" % checked)


def test_ac4_disintegration_round_trip():
    reps = []
    for name, g in named_pool():
        for ring in (Q, F3, Z4):
            reps.append((name, regular_rep(g, ring)))
    # quotients
    gz2 = zg(2)
    I = ideal_from_generators(gz2, F2, [AlgebraElement(gz2, F2, [1, 1])])
    reps.append(("quot-f2z2", quotient_algebra_rep(gz2, F2, I)))
    gz3 = zg(3)
    J = ideal_from_generators(gz3, F3, [AlgebraElement(gz3, F3, [1, 2, 0])])
    reps.append(("quot-f3z3", quotient_algebra_rep(gz3, F3, J)))
    sw = swap3()
    for K in enumerate_primitive_ideals(sw, F2):
        if not K.is_zero():
            reps.append(("quot-swap3", quotient_algebra_rep(sw, F2, K)))
    # induced modules
    for u in orbits(sw).representatives:
        reps.append(("ind-swap3", induce(sw, Q, u,
                                         trivial_module(isotropy(sw, u), Q))))
    reps.append(("ind-pair3", induce(pair_groupoid(3), F2, 0,
                                     trivial_module(
                                         isotropy(pair_groupoid(3), 0), F2))))
    assert len(reps) >= 30
    for name, rho in reps:
        T = disintegration_iso(rho)
        assert T.nrows == rho.dim
        sec = gamma_c(sheaf_of(rho))
        assert ideal_equal(annihilator(rho), annihilator(sec)), name
    print("AC4 PASS disintegration verified on %d modules" % len(reps))


def test_ac5_every_ideal_is_an_intersection():
    corpus = [("pair:2", pair_groupoid(2)), ("z:2", zg(2)), ("z:3", zg(3)),
              ("z2+pt", disjoint_union(zg(2), pair_groupoid(1)))]
    runs = 0
    for name, g in corpus:
        for ring in (F2, F3):
            assert g.n_arrows <= 4
            for I in enumerate_all_ideals(g, ring):
                rep = verify_ideal_is_intersection(g, ring, I, instance=name)
                assert rep.verified, (name, ring.spec_string(), I.basis)
                runs += 1
    assert runs >= 30
    print("AC5 PASS %d ideals confirmed as intersections of induced "
          "annihilators" % runs)


def test_ac6_primitive_ideal_oracle_match():
    corpus = [("z:2", zg(2)), ("z:3", zg(3)), ("z:4", zg(4)),
              ("pair:1", pair_groupoid(1)), ("pair:2", pair_groupoid(2)),
              ("z2+pt", disjoint_union(zg(2), pair_groupoid(1)))]
    matches = 0
    for name, g in corpus:
        for ring in (F2, F3):
            assert enumerate_primitive_ideals(g, ring) \
                == primitive_ideal_oracle(g, ring), (name,
                                                     ring.spec_string())
            matches += 1
    sw = swap3()
    assert enumerate_primitive_ideals(sw, F2) == primitive_ideal_oracle(sw, F2)
    matches += 1
    # local ring coefficients: a single primitive ideal, generated by the
    # radical together with the augmentation
    g = zg(2)
    prims = enumerate_primitive_ideals(g, Z4)
    assert len(prims) == 1
    expected = ideal_from_generators(g, Z4, [AlgebraElement(g, Z4, [2, 0]),
                                             AlgebraElement(g, Z4, [1, 1])])
    assert prims[0] == expected
    print("AC6 PASS oracle matched on %d finite-field instances; "
          "local-ring closed form holds" % matches)


def test_ac7_known_closed_forms():
    for n in (1, 2, 3):
        g = pair_groupoid(n)
        for ring in (Q, F2, F3, F5):
            prims = enumerate_primitive_ideals(g, ring)
            assert prims == [zero_ideal(g, ring)], (n, ring.spec_string())
    g = zg(2)
    expected = {ideal_from_generators(g, Q, [AlgebraElement(g, Q, [1, 1])]),
                ideal_from_generators(g, Q, [AlgebraElement(g, Q, [1, -1])])}
    assert set(enumerate_primitive_ideals(g, Q)) == expected
    dims = sorted(N.dim for N in simple_modules_group(isotropy(zg(3), 0), F2))
    assert dims == [1, 2]
    print("AC7 PASS closed forms: pair algebras simple, rational "
          "characters, F2[Z3] dims {1,2}")


def test_ac8_cli_determinism_and_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "primitive-single", "--gen", "action:z2:1,0,2",
                     "--ring", "fp:3", "--seed", "11",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["verify", "ideal-intersection", "--in", str(bad)]) == 2
    # The composition-series walk of compute simple-modules visits 2^1
    # hom vectors here, not the 2^3 of the lattice.
    assert main(["compute", "simple-modules", "--gen", "group:z3",
                 "--ring", "fp:2", "--bound", "1"]) == 3
    assert main(["compute", "simple-modules", "--gen", "group:z3",
                 "--ring", "fp:2", "--bound", "2"]) == 0
    assert main(["verify", "ideal-intersection", "--gen", "group:z2",
                 "--ring", "fp:2", "--all-ideals", "--out",
                 str(tmp_path / "c.json")]) == 0
    lines = (tmp_path / "c.json").read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(json.loads(l)["verdict"] == "verified" for l in lines)
    capsys.readouterr()
    print("AC8 PASS byte-identical reports; exit codes 0/2/3 as contracted")
