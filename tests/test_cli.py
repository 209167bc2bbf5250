import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import gpdalg
from gpdalg.cli import main, parse_generator_spec
from gpdalg import validate

from conftest import swap3


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_pair(capsys):
    code, out, _ = run(capsys, "generate", "pair", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data["arrows"]) == 9 and data["objects"] == 3


def test_generate_group(capsys):
    code, out, _ = run(capsys, "generate", "group", "z4")
    assert code == 0
    data = json.loads(out)
    assert len(data["arrows"]) == 4 and data["objects"] == 1


def test_generate_action(capsys):
    code, out, _ = run(capsys, "generate", "action", "z2", "1,0,2")
    assert code == 0
    data = json.loads(out)
    assert data["objects"] == 3 and len(data["arrows"]) == 6


def test_generate_union(capsys):
    code, out, _ = run(capsys, "generate", "union", "group:z2", "pair:2")
    assert code == 0
    data = json.loads(out)
    assert data["objects"] == 3 and len(data["arrows"]) == 6


def test_generator_round_trips_validate():
    specs = ("pair:1", "pair:2", "pair:3", "group:z1", "group:z2",
             "group:z3", "group:z4", "action:z2:1,0,2", "action:z3:1,2,0",
             "group:z2+pair:1", "pair:2+group:z3", "action:z2:1,0+group:z4")
    for spec in specs:
        g = parse_generator_spec(spec)
        assert validate(g) == [], spec


def test_generate_bad_params(capsys):
    code, _, err = run(capsys, "generate", "group", "z0")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "generate", "action", "z2", "0,0")
    assert code == 2
    code, _, _ = run(capsys, "generate", "action", "z3", "1,0,2")
    assert code == 2  # swap has order 2, not dividing... order must divide 3


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, out, _ = run(capsys, "generate", "pair", "2", "--out", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_rejects_broken_table(tmp_path, capsys):
    path = tmp_path / "bad.json"
    run(capsys, "generate", "group", "z2", "--out", str(path))
    data = json.loads(path.read_text())
    data["inv"] = [0, 0]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    for argv in (["validate", "--in", str(path)],
                 ["compute", "orbits", "--in", str(path)],
                 ["verify", "ideal-intersection", "--in", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
    code, _, _ = run(capsys, "compute", "orbits", "--in",
                     str(tmp_path / "missing.json"))
    assert code == 2


def _unreadable_argv(case, tmp_path):
    """The argv of one input that cannot be read as JSON text."""
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"objects": "\xe9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    return {
        "directory-in": ["compute", "orbits", "--in", str(tmp_path)],
        "non-utf8-in": ["compute", "orbits", "--in", str(latin)],
        "deep-in": ["compute", "orbits", "--in", str(deep)],
        "deep-ideal-gens": ["verify", "ideal-intersection", "--gen",
                            "group:z2", "--ideal-gens", deep.read_text()],
        "directory-out": ["compute", "orbits", "--gen", "pair:2", "--out",
                          str(tmp_path)],
    }[case]


@pytest.mark.parametrize("case", ["directory-in", "non-utf8-in", "deep-in",
                                  "deep-ideal-gens", "directory-out"])
def test_unreadable_input_exits_2_with_one_line(case, tmp_path, capsys):
    # Each of these printed a traceback and exited 1: IsADirectoryError,
    # UnicodeDecodeError and RecursionError escaped the error handling.
    code, out, err = run(capsys, *_unreadable_argv(case, tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field,value", [
    ("objects", 1.9), ("units", [True]), ("arrows", [{"d": 0, "r": 0.2}]),
    ("arrows", [{"d": "0", "r": 0}])])
def test_non_integer_groupoid_fields_exit_2(tmp_path, capsys, field, value):
    # Each field once read through int(): 1.9 as 1, 0.2 as 0, true as 1
    # and "0" as 0, so a one-object group came out valid.
    data = json.loads(run(capsys, "generate", "pair", "1")[1])
    data[field] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", "--in", str(path)],
                 ["compute", "orbits", "--in", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: malformed groupoid data") \
            and err.count("\n") == 1, argv


def test_duplicate_composition_entry_exits_2(tmp_path, capsys):
    # Z/2 with a second, conflicting entry for (1,1): read into a dict,
    # the last entry won and the table came out a valid group.
    data = {"objects": 1, "arrows": [{"d": 0, "r": 0}, {"d": 0, "r": 0}],
            "units": [0],
            "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 0]],
            "inv": [0, 1]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", "--in", str(path)],
                 ["compute", "stalks", "--in", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == ("error: malformed groupoid data: duplicate "
                       "composition entry (1,1)\n"), argv


@pytest.mark.parametrize("spec", ["q", "fp:3", "zn:4"])
def test_boolean_coefficients_exit_2(capsys, spec):
    code, out, err = run(capsys, "verify", "ideal-intersection", "--gen",
                         "group:z2", "--ring", spec, "--ideal-gens",
                         "[[true,1]]")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot coerce True") \
        and err.count("\n") == 1


def test_bad_ring_spec_exits_2(capsys):
    code, _, _ = run(capsys, "compute", "primitive-ideals", "--gen",
                     "group:z2", "--ring", "fp:6")
    assert code == 2
    # The verbs that never use the ring parse it all the same.
    for argv, message in (
            (["compute", "orbits", "--gen", "pair:2", "--ring", "fp:4"],
             "error: 4 is not prime\n"),
            (["compute", "isotropy", "--gen", "pair:2", "--ring", "bogus"],
             "error: unknown ring spec 'bogus'\n")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message), argv


def test_compute_orbits_frozen(capsys):
    code, out, _ = run(capsys, "compute", "orbits", "--gen", "action:z2:1,0,2")
    assert code == 0
    assert json.loads(out) == {"classes": [[0, 1], [2]],
                               "representatives": [0, 2]}


def test_compute_isotropy(capsys):
    code, out, _ = run(capsys, "compute", "isotropy", "--gen",
                       "action:z2:1,0,2", "--object", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["arrows"]) == 2 and data["base"] == 2


def test_compute_primitive_ideals_rational_z2(capsys):
    code, out, _ = run(capsys, "compute", "primitive-ideals", "--gen",
                       "group:z2", "--ring", "q")
    assert code == 0
    ideals = json.loads(out)
    assert len(ideals) == 2
    assert all(j["dim"] == 1 for j in ideals)


def test_compute_induce_sign_at_fixed_point(capsys):
    code, out, _ = run(capsys, "compute", "induce", "--gen", "action:z2:1,0,2",
                       "--object", "2", "--module", "sign", "--ring", "q")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_compute_annihilator_zn4(capsys):
    code, out, _ = run(capsys, "compute", "annihilator", "--gen", "group:z2",
                       "--ring", "zn:4", "--module", "simple:0")
    assert code == 0
    assert json.loads(out)["basis"] == [["1", "1"], ["0", "2"]]


def test_compute_stalks(capsys):
    code, out, _ = run(capsys, "compute", "stalks", "--gen", "action:z2:1,0,2",
                       "--ring", "fp:2")
    assert code == 0
    assert json.loads(out)["stalk_dims"] == [2, 2, 2]


def test_compute_simple_modules(capsys):
    code, out, _ = run(capsys, "compute", "simple-modules", "--gen",
                       "group:z3", "--ring", "fp:2")
    assert code == 0
    assert sorted(m["dim"] for m in json.loads(out)) == [1, 2]


def test_verify_all_ideals_f2z2(capsys):
    code, out, _ = run(capsys, "verify", "ideal-intersection", "--gen",
                       "group:z2", "--ring", "fp:2", "--all-ideals")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3
    assert all(l["verdict"] == "verified" for l in lines)


@pytest.mark.parametrize("argv,reports", [
    ("--gen group:z4 --ring zn:4", 23),
    ("--gen group:z2+pair:1 --ring zn:6", 48),
    # Each orbit's search costs 2^3 and 2^1 states, within the bound; the
    # whole algebra's 2^7 exceeded it.
    ("--gen group:z3+pair:2 --ring fp:2 --bound 64", 8),
])
def test_all_ideals_runs_over_finite_rings(argv, reports, capsys):
    code, out, err = run(capsys, "verify", "ideal-intersection",
                         "--all-ideals", *argv.split())
    assert (code, err) == (0, "")
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [l["verdict"] for l in lines] == ["verified"] * reports


def test_all_ideals_refusals(capsys):
    code, out, err = run(capsys, "verify", "ideal-intersection",
                         "--all-ideals", "--gen", "group:z2", "--ring", "q")
    assert (code, out) == (1, "")
    assert "finite rings" in err
    # A one-object groupoid searches its whole algebra, as before.
    code, out, err = run(capsys, "verify", "ideal-intersection",
                         "--all-ideals", "--gen", "group:z4", "--ring",
                         "fp:2", "--bound", "8")
    assert (code, out) == (3, "")
    assert "state space 2^4 exceeds bound 8" in err
    # Three orbits of 2 ideals each: every search costs 2^1, within the
    # bound, but the product has 8 ideals.
    code, out, err = run(capsys, "verify", "ideal-intersection",
                         "--all-ideals", "--gen", "pair:1+pair:1+pair:1",
                         "--ring", "fp:2", "--bound", "4")
    assert (code, out) == (3, "")
    assert "8 ideals exceed bound 4" in err


@pytest.mark.parametrize("argv,message", [
    ("primitive-ideals --all-ideals",
     "--all-ideals applies only to ideal-intersection"),
    ("primitive-single --all-ideals",
     "--all-ideals applies only to ideal-intersection"),
    ("primitive-single --ideal-gens [[1,0]]",
     "--ideal-gens applies only to ideal-intersection"),
    ("primitive-ideals --ideal-gens [[1,0]]",
     "--ideal-gens applies only to ideal-intersection"),
    ("ideal-intersection --all-ideals --ideal-gens [[1,0]]",
     "--all-ideals and --ideal-gens exclude each other"),
])
def test_ideal_flags_that_would_change_nothing_exit_2(argv, message, capsys):
    code, out, err = run(capsys, "verify", *argv.split(), "--gen",
                         "group:z2", "--ring", "fp:2")
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_verify_with_ideal_gens(capsys):
    code, out, _ = run(capsys, "verify", "ideal-intersection", "--gen",
                       "group:z2", "--ring", "zn:4", "--ideal-gens",
                       "[[2,0],[1,1]]")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "verified"
    assert rep["witnesses"]["ideal"] == [["1", "1"], ["0", "2"]]


def test_verify_primitive_ideals_zn4(capsys):
    code, out, _ = run(capsys, "verify", "primitive-ideals", "--gen",
                       "group:z2", "--ring", "zn:4")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["witnesses"]["primitive_ideals"]) == 1


def test_verify_primitive_single(capsys):
    code, out, _ = run(capsys, "verify", "primitive-single", "--gen",
                       "action:z2:1,0,2", "--ring", "fp:3")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3  # one per (orbit rep, simple module)


def test_bound_exceeded_exits_3(capsys):
    # The bound counts the hom vectors the maximal-submodule search of
    # compute simple-modules visits: Hom(F_2[Z3], trivial) holds 2^1 of
    # them.
    argv = ["compute", "simple-modules", "--gen", "group:z3", "--ring",
            "fp:2"]
    code, out, err = run(capsys, *argv, "--bound", "1")
    assert (code, out) == (3, "")
    assert err == "bound exceeded: state space 2^1 exceeds bound 1\n"
    # --bound 2 used to trip the 2^3-state lattice search; it now prints
    # the default-bound output.
    assert run(capsys, *argv, "--bound", "2") == run(capsys, *argv)
    assert run(capsys, *argv)[0] == 0


def test_primitive_ideals_search_nothing_on_cyclic_isotropy(capsys):
    # The classes of F_2[Z3] are the companion modules of x + 1 and
    # x^2 + x + 1: no hom space is searched, so --bound 1 does not trip
    # and the report is the default-bound one.
    argv = ["verify", "primitive-ideals", "--gen", "group:z3", "--ring",
            "fp:2"]
    got = run(capsys, *argv, "--bound", "1")
    assert got == run(capsys, *argv)
    code, out, err = got
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "verified"


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_bound_below_one_exits_2(capsys, bound):
    code, out, err = run(capsys, "verify", "primitive-ideals", "--gen",
                         "group:z3", "--ring", "fp:2", "--bound", bound)
    assert code == 2 and out == ""
    assert err == "error: --bound must be at least 1, got %s\n" % bound


@pytest.mark.parametrize("argv", [
    ["compute", "orbits", "--gen", "pair:x"],
    ["generate", "pair", "x"],
    ["generate", "action", "z2"],
    ["compute", "annihilator", "--gen", "group:z2", "--ring", "fp:3",
     "--module", "simple:x"],
    ["verify", "ideal-intersection", "--gen", "group:z2", "--ring", "fp:3",
     "--ideal-gens", "[1"],
    ["verify", "ideal-intersection", "--gen", "group:z2", "--ring", "q",
     "--ideal-gens", '{"a":1}'],
    ["verify", "ideal-intersection", "--gen", "group:z2", "--ring", "q",
     "--ideal-gens", "[1]"],
    ["verify", "ideal-intersection", "--gen", "group:z2", "--ring", "q",
     "--ideal-gens", "[[1,2,3]]"],
    # Fraction would first expand this into a 20-million-digit integer.
    ["verify", "ideal-intersection", "--gen", "group:z2", "--ring", "q",
     "--ideal-gens", '[["1e20000000", 0]]'],
])
def test_malformed_input_exits_2_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(gpdalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gpdalg.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_zn8_ideal_gens_with_equal_pivots_verified():
    # Its Howell form once looped forever (equal pivot entries), so the
    # job runs in a subprocess with a timeout.
    src = os.path.dirname(os.path.dirname(gpdalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gpdalg.cli", "verify",
                           "ideal-intersection", "--gen", "pair:2+group:z2",
                           "--ring", "zn:8", "--ideal-gens", "[[2,0,0,0,0,6]]"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "verified"


def test_stalks_pair6_over_q_finishes():
    # rep_validate once multiplied all 36^2 dense arrow matrices here,
    # minutes of work, so the job runs in a subprocess with a timeout.
    src = os.path.dirname(os.path.dirname(gpdalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gpdalg.cli", "compute",
                           "stalks", "--gen", "pair:6", "--ring", "q"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stalk_dims"] == [6] * 6


def test_text_format_summary(capsys):
    code, out, _ = run(capsys, "verify", "primitive-ideals", "--gen",
                       "group:z2", "--ring", "fp:2", "--format", "text")
    assert code == 0
    assert "1 verified, 0 refuted, 0 skipped" in out


def test_byte_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "primitive-single", "--gen",
                         "action:z2:1,0,2", "--ring", "fp:3", "--seed", "7",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    # timings are opt-in, so default reports carry no clock values
    assert b"wall_time" not in a.read_bytes()


def test_seed_recorded_in_reports(capsys):
    code, out, _ = run(capsys, "verify", "primitive-ideals", "--gen",
                       "group:z2", "--ring", "q", "--seed", "42")
    assert code == 0
    assert json.loads(out)["seed"] == 42


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nonsense", "--gen", "group:z2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("workload", ("lattice-fin", "primitive-q",
                                      "disintegrate"))
def test_benchmark_jobs_match_recorded_outputs(workload, tmp_path, capsys):
    # Every job of the workload on the identity relabelling (seed 0, input
    # set 0), judged by the benchmark's own checker: exit code, verdicts,
    # summaries and the stdout digest recorded in perfbench/expected.json.
    sys.path.insert(0, PERFBENCH)
    try:
        import checks
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    expected = checks.load_expected()
    jobs = workloads.build(workload, 0, str(tmp_path), sets=1)["sets"][0]
    assert len(jobs) == len(workloads.WORKLOADS[workload])
    for job in jobs:
        assert job["identity"]
        code = main(job["argv"])
        out = capsys.readouterr().out
        assert checks.check_job(job, code, out, expected) is None, job["key"]


@pytest.mark.parametrize("argv,digest", [
    ("verify ideal-intersection --gen group:z12 --ring zn:12",
     "e03b8f044a41555ea9fd7c7bfce3895375c572bab8f18d1fc3f069513ce55e91"),
    ("verify ideal-intersection --gen action:z2:1,0,2 --ring zn:6",
     "a9988397d86237edec32d2e3e4a4bd0f644b4d6ed6da9dd5895cee4eeb92a75f"),
    ("verify ideal-intersection --gen pair:3 --ring zn:8 "
     "--ideal-gens [[4,0,0,0,0,0,0,0,0]]",
     "cb4ee3d7339e0e20adfeca182868c06d28fad32a05ac30062ac3f138242ecee7"),
    ("compute annihilator --gen group:z4 --ring zn:8 --module regular",
     "470fb0ce8431c3509a3de6ceeed2345714443ac767a975c33ab8cda5e3d43c34"),
    ("compute annihilator --gen action:z4:1,2,3,0 --ring zn:12 "
     "--module trivial",
     "ba1f8ea610a0db88d6d8e64e17d42fb3c82c0e2cd71ef139bdd5e854540d383f"),
    ("compute stalks --gen pair:4 --ring zn:4",
     "1de40f182b83c30810625de24429f6afba9a76825e78dd4dc6d3dd232767c831"),
    ("compute simple-modules --gen group:z6 --ring zn:4",
     "145e365a336328df2ebc807d3e23ca884ea23770eec5ba84672ea421838b7ba6"),
])
def test_zn_jobs_keep_their_bytes(argv, digest, capsys):
    # Howell forms are unique, so every elimination route must print these
    # bytes; the digests were recorded with the batch Howell form.
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("verify primitive-single --gen action:z4:1,0,3,2 --ring fp:3",
     "511581a183e30309db5074de0558eb4621d8a9e614a974b0aace4372babcd94c"),
    ("verify primitive-single --gen pair:3 --ring fp:2",
     "1fa73fe85287ded8ea53cb98592d37a69106d1b58b642cae013d63ffc287e557"),
    ("verify primitive-single --gen group:z7 --ring fp:3",
     "5d24c26a69e2f0d10a6ce3a40ad3dba1e96369dc948cf3f13498918d7102194f"),
    ("verify primitive-single --gen group:z6 --ring zn:4",
     "0669b24a64f712102fc4ae5c64655c0a1121af74544690fbfd45b7a86a4741ce"),
    ("verify primitive-ideals --gen pair:2+group:z3 --ring zn:9",
     "f64c403fbb774c182472faf7834879e4024c4017b9e140b9df73a9c2ca8be6a1"),
    ("verify ideal-intersection --all-ideals --gen group:z4+pair:2 "
     "--ring fp:2",
     "efdc594a81ab48face45a888a432f8e7eba44d36609297a97d9d194ad3b8be44"),
    ("verify ideal-intersection --all-ideals --gen action:z2:1,0,2 "
     "--ring fp:3",
     "14f37ad1ddd24d0a0a18c4be4063cafc29beca5af660b12ccdb0dc2f83cb2406"),
    ("verify ideal-intersection --all-ideals --gen group:z6 --ring fp:3",
     "b498d51fa340c844d3740d0539fdcef2e1ca92ad573b3241768624857d527462"),
    ("verify ideal-intersection --all-ideals --gen group:z3+pair:2 "
     "--ring fp:3",
     "b914a76e292c4eafebbb45ebf5e705e8ea2facdad3ebe11e8d4996872f3c2fd9"),
    ("verify ideal-intersection --all-ideals --gen pair:4 --ring fp:2",
     "2f5296d80d01711e45fe9dee18407db93569bb642cbcc30fa274a15b4aa4cf12"),
    ("verify ideal-intersection --all-ideals --gen action:z4:1,0,3,2 "
     "--ring fp:2",
     "9f9d5a939af00ad76ff542bcf905be25834d69ff550bcff92a5d37bf9f130ce9"),
])
def test_search_jobs_keep_their_bytes(argv, digest, capsys):
    # The simplicity checks and the submodule and ideal lattices behind
    # these jobs must print these bytes whatever the search route; the
    # digests were recorded with a per-vector spin loop in is_simple, a
    # pairwise join queue in invariant_lattice and, for --all-ideals, the
    # lattice of the whole algebra in n_arrows dimensions.
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("compute simple-modules --gen group:z8 --ring fp:2",
     "9e4c890db571da951ba00474ba8d13dec5c01ecbe814572040fe690a3b99bda4"),
    ("compute simple-modules --gen group:z9 --ring fp:3",
     "297bd8278efc66245d7dde3efcce14cd84d70fb323c856b1a56b801fd85819f4"),
    ("compute simple-modules --gen group:z12 --ring fp:5",
     "ba2a7e1981f028ea20f6a5caea3ffb0a2f1d6e24a79078de1baa325b8697c332"),
    ("compute simple-modules --gen group:z21 --ring fp:2",
     "c5d63c86ebc92939ec0bf3a0df695f44e0be96cfdaa7f73ac40ad1d74ac93e94"),
    ("verify primitive-ideals --gen group:z8 --ring zn:8",
     "242d269f8667f113c8b88f8ed69469d20f6337058c07a99721d1a02fb9087ed0"),
    ("verify primitive-ideals --gen pair:5 --ring fp:2",
     "b9134d87ff24ccce20552b1d095ee66c4907a0712d65cfa39094b180108b8532"),
    ("compute simple-modules --gen group:z10 --ring fp:11",
     "71a858ea3d0bcbe9749446565aba464c7f36f0fa10174ba0cc5b4ee683612a8f"),
    ("verify primitive-ideals --gen group:z12 --ring fp:7",
     "817bb7e7091e1eaecf4c41070fa199da765073ed688766e0593014d7bd55f731"),
])
def test_simple_module_jobs_keep_their_bytes(argv, digest, capsys):
    # The digests were recorded with the composition-series walk of
    # simple_modules_group run to the bottom of the series, and with the
    # annihilator of each induced module checked to be a two-sided ideal
    # before the primitive-ideal verdict compared it.  Their order is the
    # dense row-major sort_key, also with sparse matrices (z12/fp:5).
    # The fp:11 and fp:7 digests were recorded with an RREF kernel of its
    # own for F_p, before F_p ran through the Howell table as Z/p.
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("verify ideal-intersection --gen action:z4:1,0,3,2 --ring zn:4 "
     "--all-ideals",
     "86c3e7dcf9ca79ffe8aeea5dcec3901e28079645f84dcbb9ee58859d47ca80e9"),
    ("verify ideal-intersection --gen group:z6+pair:2 --ring zn:6 "
     "--all-ideals",
     "d80f4351b0b6af2f89595b05586e22d6aaadbdd4ee8e183579e58fbec75a70c0"),
    ("verify ideal-intersection --gen pair:3+group:z4 --ring zn:4 "
     "--ideal-gens [[0,1,0,0,0,0,0,3,0,0,0,0,0],[1,0,0,0,0,0,0,0,0,0,0,0,1]]",
     "9f0429053caa4800fcee99f84669e6d89066ca1efd3404308606c33b9cc266ca"),
    ("compute annihilator --gen action:z6:1,2,0,4,5,3 --ring q --object 2 "
     "--module regular",
     "f920dec9c8073694c07459094459bac18a6a9765be22f4353aff263fa49b10fa"),
])
def test_product_layout_jobs_keep_their_bytes(argv, digest, capsys):
    # Orbit blocks out of arrow order, Howell forms and a non-representative
    # object: the digests were recorded with every ideal laid out row by
    # row in n_arrows dimensions and eliminated there again, and with the
    # ideal generation spun under the whole algebra's arrow actions.
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _outcomes(capsys, calls):
    got = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        got.append((code, out.out, out.err))
    return got


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # main parses with one parser per process; a sequence of calls through
    # it prints what the same calls print with a fresh parser each.
    assert gpdalg.cli._parser() is gpdalg.cli._parser()
    calls = [["compute", "stalks", "--bound", "x"], ["--help"],
             ["compute", "stalks", "--gen", "pair:2", "--ring", "fp:3"],
             ["verify", "primitive-ideals", "--gen", "group:z3",
              "--format", "text"],
             ["compute", "stalks", "--gen", "pair:2", "--bound", "0"],
             ["verify", "--help"], ["compute"],
             ["compute", "orbits", "--gen", "group:z2+pair:2"]]
    shared = _outcomes(capsys, calls)
    monkeypatch.setattr(gpdalg.cli, "_parser", gpdalg.cli.build_parser)
    assert shared == _outcomes(capsys, calls)
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 2, 0, 2, 0]


def test_benchmark_jobs_build_no_coercing_matrix(monkeypatch, capsys):
    # Inside the library every matrix is built from entries already in
    # the ring (Matrix._sparse or Matrix._trusted); only callers from
    # outside it use the coercing constructors.  All the benchmark's jobs, on --gen inputs.
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    calls = []
    init = gpdalg.Matrix.__init__

    def counted(self, *args):
        calls.append(args[1:3])
        init(self, *args)

    monkeypatch.setattr(gpdalg.Matrix, "__init__", counted)
    gens = json.dumps(workloads.ideal_generator(
        0, 0, list(range(workloads.IDEAL_GEN_ORDER))))
    jobs = [job for w in workloads.WORKLOADS.values() for job in w]
    assert len(jobs) == 15
    for verb, what, spec, ring, extra in jobs:
        argv = [verb, what, "--gen", spec, "--ring", ring]
        argv += [gens if x == "{gens}" else x for x in extra]
        assert run(capsys, *argv)[0] == 0, argv
    assert calls == []


@pytest.mark.parametrize("argv,digest", [
    ("compute stalks --gen pair:10 --ring q",
     "9d0014f8a2b50b267cea3055ee0d0a75ee881983791a84a2e7e5cded294929f5"),
    ("compute stalks --gen pair:8 --ring zn:4",
     "fb70b1a01fecd49227267b506e9416873f11fec2b87def11766d0e1bd2f2a3a6"),
    ("compute stalks --gen pair:8 --ring q",
     "8c509ef0ce9fa289f0a352870f36998845be90f61661b16b570337e093856835"),
    ("compute stalks --gen pair:10 --ring fp:2",
     "5456e800e421a32c6328544e83dbeacdc66d18691d98a9323258999b9d71d687"),
    ("compute stalks --gen group:z3+pair:3 --ring zn:4",
     "9bac9a6c1f3fa64c4fbf8e61f9df0a266b3508e074c2e8e785582ec62603535e"),
    ("compute stalks --gen pair:6 --ring fp:7",
     "c34e35e1bf4ad2dca667dded18cb1434a8c95fdb2b55e310f43378511e3214ee"),
    ("compute stalks --gen pair:15 --ring q",
     "7d298ee8cf856d41e5f9f2f0759899b2fd4e3933f348353a529646c67aafcf4d"),
    ("compute stalks --gen pair:15 --ring fp:2",
     "fc642436c0bfb14e96188114942e6df38867a73c6b8ee041eafc12adea663b1e"),
    ("compute stalks --gen pair:20 --ring fp:2",
     "0ef4d603273ab0e21307be848aab46a1a101b8197404c70e1ecbbfcff1aecdda"),
])
def test_large_stalk_jobs_keep_their_bytes(argv, digest, capsys):
    # Larger than the benchmark's pair:4 and pair:5.  compute stalks now
    # reads the regular sheaf off the composition table (regular_sheaf);
    # every digest was recorded on the general route, sheaf_of of the
    # m x m regular module: the first two with the dense left factor and
    # the entrywise sum, the next three with every matrix held dense,
    # pair:6/fp:7 with an RREF kernel of its own for F_p, and the last
    # three with sparse products.
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_q_primitive_ideal_job_keeps_its_bytes(capsys):
    # The primitive-ideal path over Q: annihilators induced from the
    # companion modules of the cyclotomic factors, on Z/48.  Recorded
    # with every rational held as a Fraction, before integral ones
    # became ints.
    code, out, err = run(capsys, "compute", "primitive-ideals",
                         "--gen", "group:z48", "--ring", "q")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e0493f03a4831f43e1c74213fddb00a398c7282d98c45e635cc676b5c529f8f1"


@pytest.mark.parametrize("argv,digest", [
    ("compute primitive-ideals --gen group:z35 --ring fp:2",
     "b18b76a8145c2c6e015057e840e75f7c5b40c81e0029cf284898db7025528bf8"),
    ("verify primitive-ideals --gen group:z35 --ring fp:2",
     "e3605508e6b96beb75162c7b784b0566369486d590edf26d81fb1fc4c0acb173"),
    ("compute primitive-ideals --gen group:z30 --ring fp:7",
     "965977526bae93cac7e544f41ed652864d9275ca0e54f01b138eea1e154d9706"),
    ("verify primitive-ideals --gen group:z30 --ring fp:7",
     "79c837acd69b13544c8593f80effff013c4e50885fbd2003211ca6631be5a7a1"),
    ("compute primitive-ideals --gen group:z60 --ring fp:7",
     "0a65ab1f80a14b8be49dd18e9e570d9d835f904691240549d599c02b3894dca0"),
])
def test_cyclic_fp_primitive_ideal_jobs_keep_their_bytes(argv, digest,
                                                         capsys):
    # Annihilators of the companion modules of the factors of x^n - 1
    # over F_p; the digests were recorded with the simples of a
    # composition-series walk of F_p[Z/n], which took 2.5 to 37 s a job.
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_disintegrate_jobs_read_no_dense_module_matrix(monkeypatch, capsys):
    # compute stalks writes each stalk matrix from the composition table
    # and builds no m x m matrix of the regular module: nothing of size
    # m^2 is read dense (entries, rows, col, to_lists or entry_strings),
    # only the small stalk matrices of the output are, and neither the
    # module, its
    # validation, the stalk bases nor the restriction is computed.  The
    # benchmark's five jobs.
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    shapes, general = [], []

    def logged(name, f):
        def wrapper(*args, **kwargs):
            general.append(name)
            return f(*args, **kwargs)
        return wrapper

    for name in ("rep_validate", "regular_rep", "restrict",
                 "canonical_rows"):
        for mod in (gpdalg.cli, gpdalg.sheaves, gpdalg.modules,
                    gpdalg.linalg):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    logged(name, getattr(mod, name)))

    def counted(read):
        def wrapper(self, *args):
            shapes.append((self.nrows, self.ncols))
            return read(self, *args)
        return wrapper

    M = gpdalg.Matrix
    monkeypatch.setattr(M, "entries", property(counted(M.entries.fget)))
    for name in ("rows", "col", "to_lists", "entry_strings"):
        monkeypatch.setattr(M, name, counted(getattr(M, name)))
    for verb, what, spec, ring, extra in workloads.WORKLOADS["disintegrate"]:
        m = parse_generator_spec(spec).n_arrows
        shapes.clear()
        assert run(capsys, verb, what, "--gen", spec, "--ring", ring,
                   *extra)[0] == 0
        assert shapes and all(r * c < m * m for r, c in shapes), spec
    assert general == []


@pytest.mark.parametrize("argv,code,digest", [
    ("verify primitive-single --gen pair:3 --ring q", 0,
     "125d46b00d2bc81c65d2a620385f4fb0d6104b32e272373937bcb3dc3973ad77"),
    ("verify primitive-single --gen pair:3 --ring fp:3", 0,
     "cffce6771ab7f55467a70acb77a8824d36a75036cb9ae29d4ecf900957787f63"),
    ("verify primitive-single --gen pair:3 --ring zn:4", 0,
     "8e5419c0096550c1cbc2a8d3a5e8ab62391ef1424f3ac4c83487e9ff73a2c2b1"),
    ("verify primitive-single --gen pair:3 --ring zn:9", 0,
     "4b783431b2228b72cc7f6879ce41f3948a506eb5a92276f190512eb9a4141602"),
    ("verify primitive-single --gen action:z4:1,2,3,0 --ring q", 0,
     "bf3d4b9a22c69981fd9e53c29a55f2eec7fe848bed2e9ab8697bacb14b5b1fb9"),
    ("verify primitive-single --gen action:z4:1,2,3,0 --ring fp:3", 0,
     "95568b52cc98a369535a6bc8e7bc5779fcd5034dfb0602b847bb404543dbbc58"),
    ("verify primitive-single --gen action:z4:1,2,3,0 --ring zn:4", 0,
     "cccd35d231b7576d20d60c016c64f14b844ab2e8ab9af6304d29abc0d9cec925"),
    ("verify primitive-single --gen action:z4:1,2,3,0 --ring zn:9", 0,
     "7ded5f49961c1e52b0ebaefe8adfa23a5819b0f5e912b23aa156d86385e66c50"),
    ("verify primitive-single --gen group:z2+pair:2 --ring q", 0,
     "9db86c49264d268329c9a96b778e80ab9f9a453f32abf479dc40cb9481cc9d5c"),
    ("verify primitive-single --gen group:z2+pair:2 --ring fp:3", 0,
     "2cbf60f7dd7474a26b1e7a8044d57a1294b86cf878e8a2e9e17ce8b491e16365"),
    ("verify primitive-single --gen group:z2+pair:2 --ring zn:4", 0,
     "70e5b2865f18fdee179ccc124d73e83a0e5a998f1de28f60cfd537c4bef9d80f"),
    ("verify primitive-single --gen group:z2+pair:2 --ring zn:9", 0,
     "0ea98eaf0f3a59f2be730c567928894d21d2f6eb5b700f7de68339071c759691"),
    ("verify primitive-ideals --gen pair:3 --ring q", 0,
     "b5b67a437b2272d7c2a00a32afe52cbfa849e0e52d18cdaf9ab4d27f6ad726ec"),
    ("verify primitive-ideals --gen pair:3 --ring fp:3", 0,
     "493ad2e8f7c16a67fa5f776b44551e9e5061cbaaa427ed8162290fb035edd055"),
    ("verify primitive-ideals --gen pair:3 --ring zn:4", 0,
     "a5ba8e9e58b4a7eee32171ab5c71a8f5d553684e60e04c2986d8fdcf551cd5be"),
    ("verify primitive-ideals --gen pair:3 --ring zn:9", 0,
     "80acbfcb84959e7b13d9662e9fb3b56c8993c62db174a03d84f95e206e269bcc"),
    ("verify primitive-ideals --gen action:z4:1,2,3,0 --ring q", 0,
     "69f30c85b49c50c18ae6fc798b095568e03abe2424c4a5164b25a23a8f0e5c97"),
    ("verify primitive-ideals --gen action:z4:1,2,3,0 --ring zn:4", 0,
     "d955c4446c732d9ccbfd433def43b8973891f2c1cf7c9d7ad86c5c269dc99355"),
    ("verify primitive-ideals --gen action:z4:1,2,3,0 --ring zn:9", 0,
     "34039071f299a5feb7bead3660af925870d20f1fb1092cf8a03830ad99264504"),
    ("verify primitive-ideals --gen group:z2+pair:2 --ring q", 0,
     "657097a13b605e2c22869e0cad0822302a426df8321a1c518d65980d883b786e"),
    ("verify primitive-ideals --gen group:z2+pair:2 --ring fp:3", 0,
     "32edef9f3e3777d7654b759dbcb2ec4e652ee16d1c01d64675438a3379ee4f4d"),
    ("verify primitive-ideals --gen group:z2+pair:2 --ring zn:4", 0,
     "b2db51b406cf48620b1dbfa2d63d82eba466f639e3fb268c5bc72b2a57f7ac30"),
    ("verify primitive-ideals --gen group:z2+pair:2 --ring zn:9", 0,
     "8f736b8ec0fde0f74a76474138e1fdc8803b3000c365d0a56d8204daa733e652"),
])
def test_multi_object_simplicity_jobs_keep_their_bytes(argv, code, digest,
                                                       capsys):
    # Simplicity is decided on the stalk of one disintegration, and each
    # induced annihilator is checked once; at the default bound these
    # jobs must print the bytes recorded with the whole-module search
    # and the second closure check on the assembled ideal.
    got, out, err = run(capsys, *argv.split())
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code", [
    # Simplicity is charged on the stalk (3^1 states), not on the whole
    # induced module (3^3): the check answers within --bound 10.
    ("verify primitive-single --gen pair:3 --ring fp:3 --bound 10", 0),
    ("verify primitive-ideals --gen action:z4:1,2,3,0 --ring zn:4 "
     "--bound 10", 0),
    # Norton's test decides the regular module of Z/4 behind
    # simple_modules_group without a search (it tripped the 3^4-state
    # lattice search at --bound 10) ...
    ("verify primitive-single --gen group:z4 --ring fp:3 --bound 10", 0),
    # ... and the bound trips in the search of Hom(F_3[Z4], S), dim S = 1,
    # that picks its maximal submodules, before any simplicity check.
    ("verify primitive-single --gen group:z4 --ring fp:3 --bound 2", 3),
])
def test_bound_charges_simplicity_on_the_stalk(argv, code, capsys):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    if code == 0:
        assert err == "" and "skipped" not in out
        assert all(json.loads(line)["verdict"] == "verified"
                   for line in out.splitlines())
    else:
        assert err == "bound exceeded: state space 3^1 exceeds bound 2\n"


def test_big_prime_modulus_is_refused_not_factored(capsys):
    # 10^30 + 57 passes every strong-probable-prime base, above the limit
    # where they decide primality: the job stops at once with the reason.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compute", "simple-modules", "--gen",
                         "group:z2", "--ring", "zn:%d" % (10 ** 30 + 57))
    assert time.perf_counter() - t0 < 10
    assert (code, out) == (1, "")
    assert err.startswith("error (unsupported-ring): ")
    assert "3317044064679887385961981" in err


@pytest.mark.parametrize("p", [10 ** 9 + 7, 2 ** 61 - 1])
def test_large_prime_fields_exit_3_on_the_search_bound(p, capsys):
    # Norton's test splits F_p[Z2] without listing F_p; the bound then
    # trips in the search of Hom(F_p[Z2], S), dim S = 1, of the
    # composition-series walk behind compute simple-modules.
    code, out, err = run(capsys, "compute", "simple-modules", "--gen",
                         "group:z2", "--ring", "fp:%d" % p)
    assert (code, out) == (3, "")
    assert err == "bound exceeded: state space %d^1 exceeds bound " \
        "1048576\n" % p


@pytest.mark.parametrize("p", [10 ** 9 + 7, 2 ** 61 - 1])
def test_large_prime_fields_give_primitive_ideals_without_a_search(p,
                                                                   capsys):
    # x^2 - 1 = (x - 1)(x + 1) over F_p: two companion modules, whose
    # induced annihilators are spanned by [1, 1] and [1, p - 1], and the
    # oracle's Norton test agrees without listing F_p.
    want = [[["1", "1"]], [["1", str(p - 1)]]]
    code, out, err = run(capsys, "verify", "primitive-ideals", "--gen",
                         "group:z2", "--ring", "fp:%d" % p)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "verified"
    assert report["witnesses"] == {"primitive_ideals": want,
                                   "oracle_ideals": want}
    code, out, err = run(capsys, "compute", "primitive-ideals", "--gen",
                         "group:z2", "--ring", "fp:%d" % p)
    assert (code, err) == (0, "")
    assert [J["basis"] for J in json.loads(out)] == want


def test_report_flags_belong_to_verify(capsys):
    # --seed, --format and --timings shape verify's reports; compute
    # prints no report, so it rejects them.
    for flag in (["--timings"], ["--seed", "1"], ["--format", "text"]):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "orbits", "--gen", "group:z2"] + flag)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", "primitive-ideals", "--gen",
                       "group:z2", "--ring", "fp:2", "--seed", "5",
                       "--format", "text", "--timings")
    assert code == 0
    assert "1 verified, 0 refuted, 0 skipped" in out
    assert out.splitlines()[0].endswith("s]")


@pytest.mark.parametrize("argv,summary", [
    # These exited 3 while the lattice search enumerated 5^12, 2^25 and
    # 3^16 vectors against the default bound.
    ("compute simple-modules --gen group:z12 --ring fp:5",
     [1, 1, 1, 1, 2, 2, 2, 2]),
    ("verify primitive-ideals --gen pair:5 --ring fp:2", ("verified", 1)),
    ("verify primitive-ideals --gen action:z4:1,2,3,0 --ring fp:3",
     ("verified", 1)),
])
def test_meataxe_answers_within_the_default_bound(argv, summary, capsys):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    got = json.loads(out)
    if argv.startswith("compute"):
        assert [N["dim"] for N in got] == summary
    else:
        assert (got["verdict"], len(got["witnesses"]["primitive_ideals"])) \
            == summary
        assert got["witnesses"]["primitive_ideals"] \
            == got["witnesses"]["oracle_ideals"]


def test_submodule_lattice_only_serves_all_ideals(capsys, monkeypatch):
    # The finite-field benchmark jobs reach the exhaustive lattice only
    # through --all-ideals, and that searches each orbit's isotropy
    # algebra in |G_u| dimensions, never the whole algebra's n_arrows.
    import gpdalg.ideals
    import gpdalg.modules

    calls = []
    real = gpdalg.ideals.invariant_lattice

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in (gpdalg.ideals, gpdalg.modules):
        monkeypatch.setattr(mod, "invariant_lattice", counting)
    for argv in ("verify primitive-ideals --gen pair:2+group:z3 --ring fp:2",
                 "verify primitive-ideals --gen group:z6 --ring fp:3",
                 "compute simple-modules --gen group:z7 --ring fp:3",
                 "verify primitive-ideals --gen group:z8 --ring zn:8"):
        assert run(capsys, *argv.split())[0] == 0
    assert calls == []
    assert run(capsys, "verify", "ideal-intersection", "--gen",
               "group:z3+pair:2", "--ring", "fp:2", "--all-ideals")[0] == 0
    # One call per orbit: G_0 = Z/3, then the trivial group of pair:2.
    assert [dim for _, _, dim, _ in calls] == [3, 1]
