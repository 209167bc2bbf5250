"""Tests of the benchmark harness itself (not of gpdalg).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

STALKS = "compute stalks action:z4:1,2,3,0 fp:2"
ANNIHILATOR = "compute annihilator group:z18 q --module simple:3"


@pytest.fixture(scope="module")
def seed0_jobs(tmp_path_factory):
    plan = workloads.build("disintegrate", 0, str(tmp_path_factory.mktemp("in")),
                           sets=2)
    return plan["sets"]


def run_cli(argv):
    from gpdalg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def job_named(jobs, key):
    return next(j for j in jobs if j["key"] == key)


def test_harness_imports_working_tree_src():
    import gpdalg

    assert os.path.dirname(gpdalg.__file__) == os.path.join(worker.SRC,
                                                            "gpdalg")


def test_seed_zero_set_zero_is_identity_relabelling(seed0_jobs):
    from gpdalg.cli import parse_generator_spec
    from gpdalg.groupoid import FiniteGroupoid

    job = job_named(seed0_jobs[0], STALKS)
    with open(job["argv"][3]) as fh:
        g = FiniteGroupoid.from_json_dict(json.load(fh))
    assert job["identity"]
    assert g == parse_generator_spec("action:z4:1,2,3,0")
    assert not job_named(seed0_jobs[1], STALKS)["identity"]


def test_checker_accepts_right_output_on_every_input_set(seed0_jobs):
    expected = checks.load_expected()
    for jobs in seed0_jobs:
        job = job_named(jobs, STALKS)
        rc, out = run_cli(job["argv"])
        assert checks.check_job(job, rc, out, expected) is None


def test_checker_flags_corrupted_stdout(seed0_jobs):
    expected = checks.load_expected()
    job = job_named(seed0_jobs[0], STALKS)
    rc, out = run_cli(job["argv"])
    # Same summary, different bytes: caught by the seed-0 digest.
    data = json.loads(out)
    data["matrices"][0][0] = "0" if data["matrices"][0][0] != "0" else "1"
    corrupted = json.dumps(data, sort_keys=True) + "\n"
    assert "digest" in checks.check_job(job, rc, corrupted, expected)
    # Wrong summary: caught on any input set.
    data["stalk_dims"][0] += 1
    wrong = json.dumps(data, sort_keys=True) + "\n"
    other = job_named(seed0_jobs[1], STALKS)
    assert "summary" in checks.check_job(other, rc, wrong, expected)
    assert "unreadable" in checks.check_job(other, rc, out[:-9], expected)


def test_checker_flags_flipped_verdict_and_wrong_exit_code():
    expected = checks.load_expected()
    job = {"key": "verify primitive-ideals group:z8 zn:8", "identity": False,
           "argv": ["verify", "primitive-ideals"]}
    line = {"check": "primitive-ideals", "verdict": "verified"}
    good = json.dumps(line) + "\n"
    assert checks.check_job(job, 0, good, expected) is None
    flipped = json.dumps(dict(line, verdict="refuted")) + "\n"
    assert "verdicts" in checks.check_job(job, 0, good + flipped, expected)
    assert "verdicts" in checks.check_job(job, 0, "", expected)
    assert "exit code" in checks.check_job(job, 1, good, expected)
    assert "exit code" in checks.check_job(job, 3, good, expected)


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    """Two small jobs through the traced pass, twice; tracer is removed."""
    from gpdalg import cli

    plan = workloads.build("primitive-q", 0,
                           str(tmp_path_factory.mktemp("in")), sets=1)
    jobs = [job_named(plan["sets"][0], ANNIHILATOR)]
    plan = workloads.build("disintegrate", 0,
                           str(tmp_path_factory.mktemp("in")), sets=1)
    jobs.append(job_named(plan["sets"][0], STALKS))
    expected = checks.load_expected()
    runs = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            wrapped = {name: vars(sys.modules["gpdalg." + name])[
                "canonical_rows"] for name in ("linalg", "modules", "sheaves")}
            p = worker.run_pass(cli, jobs, expected, 60.0, t)
        finally:
            t.restore()
        runs.append((t, p, wrapped))
    return runs


def test_wrappers_bind_everywhere_and_none_survive(traced_pass):
    from gpdalg import linalg, modules, sheaves

    for t, p, wrapped in traced_pass:
        assert all(getattr(w, tracer.MARK, False) for w in wrapped.values())
        assert len({id(w) for w in wrapped.values()}) == 1
        assert all(j["failure"] is None for j in p["jobs"])
    assert tracer.find_wrappers() == []
    assert modules.canonical_rows is linalg.canonical_rows
    assert sheaves.canonical_rows is linalg.canonical_rows
    assert not getattr(linalg.Matrix.__mul__, tracer.MARK, False)


def test_layer_self_times_fit_in_the_pass(traced_pass):
    for t, p, _ in traced_pass:
        m = t.metrics()
        layers = sum(m[layer + ".self_s"] for layer in tracer.LAYERS)
        assert 0 < layers <= p["wall_s"]
        assert m["linalg.matmul.calls"] > 0 and m["ideals.closure_checks"] > 0
        n = len(t.span_start)
        assert n == len(t.span_end) == len(t.span_parent) == len(t.span_job)
        assert all(t.span_start[i] <= t.span_end[i] for i in range(n))
        assert all(-1 <= t.span_parent[i] < i for i in range(n))
        assert n > 0 and -1 not in t.span_job


def test_counts_repeat_exactly(traced_pass):
    (t1, _, _), (t2, _, _) = traced_pass
    m1, m2 = t1.metrics(), t2.metrics()
    counts = [k for k in m1 if not k.endswith("_s")]
    assert [m1[k] for k in counts] == [m2[k] for k in counts]
    assert t1.names == t2.names and t1.calls == t2.calls


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disintegrate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


class FakeCli:
    """Stands in for gpdalg.cli: one job spins forever, one crashes."""

    @staticmethod
    def main(argv):
        if argv[0] == "spin":
            while True:
                pass
        raise ValueError("boom")


def test_timeouts_and_crashes_are_counted_as_failures():
    import signal

    jobs = [{"id": 0, "key": "spin", "argv": ["spin"]},
            {"id": 1, "key": "crash", "argv": ["crash"]}]
    old = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        p = worker.run_pass(FakeCli, jobs, {}, 0.2)
    finally:
        signal.signal(signal.SIGALRM, old)
    spin, crash = p["jobs"]
    assert spin["failure"] == "timeout" and spin["wall_s"] >= 0.2
    assert crash["failure"].startswith("error: ") and "boom" in crash["failure"]
