"""One benchmark process: set-up, then passes over a workload's jobs.

Run by ``run.py`` in a fresh, single-threaded interpreter:

    python3 perfbench/worker.py setup PLAN
    python3 perfbench/worker.py run PLAN SECONDS
    python3 perfbench/worker.py trace PLAN SPANS_OUT

``setup`` only times set-up: importing ``gpdalg.cli`` from the working
tree's ``src/`` and loading and validating every input of the plan.
``run`` then runs passes back to back, pass p running every job of
input set p once through ``gpdalg.cli.main`` in this process, and starts
another pass while at least half of one still fits in SECONDS.
``trace`` runs one untraced and one traced pass on input set 0 and
restores the originals before returning.  The result is one JSON
object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# Per-job time budget; a job past it is stopped and counted as a timeout.
JOB_BUDGET_S = 30.0
TRACED_BUDGET_S = 90.0


class JobTimeout(BaseException):
    """Raised inside a job that ran past its budget."""


def _alarm(signum, frame):
    raise JobTimeout()


def calibrate() -> float:
    """Seconds for a fixed pure-Python probe, to tell host drift apart."""
    start = time.perf_counter()
    acc = 0
    for i in range(200000):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def setup(plan: dict):
    """Import the CLI and load and validate every input; (seconds, cli)."""
    start = time.perf_counter()
    from gpdalg import cli
    from gpdalg.groupoid import FiniteGroupoid, validate

    for path in plan["inputs"]:
        with open(path) as fh:
            errs = validate(FiniteGroupoid.from_json_dict(json.load(fh)))
        if errs:
            raise SystemExit("invalid input %s: %s" % (path, errs[0]))
    return time.perf_counter() - start, cli


def run_job(cli, argv, budget: float):
    """(status, exit code, stdout, wall seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    status, rc = "done", None
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except JobTimeout:
        status = "timeout"
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed job, not a dead run
        status = "error: " + traceback.format_exc(limit=-3)
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, rc, out.getvalue(), wall


def run_pass(cli, jobs: list, expected: dict, budget: float, tracer=None):
    """Every job once, back to back; output checks run after the pass."""
    from checks import check_job

    results = []
    cpu0, start = time.process_time(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        results.append(run_job(cli, job["argv"], budget))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    done = []
    for job, (status, rc, stdout, job_wall) in zip(jobs, results):
        if status == "done":
            problem = check_job(job, rc, stdout, expected)
        else:
            problem = status
        done.append({"id": job["id"], "key": job["key"], "wall_s": job_wall,
                     "failure": problem})
    return {"wall_s": wall, "cpu_s": cpu, "jobs": done}


def main(argv) -> dict:
    mode, plan_path = argv[0], argv[1]
    with open(plan_path) as fh:
        plan = json.load(fh)
    setup_s, cli = setup(plan)
    if mode == "setup":
        return {"setup_s": setup_s}

    from checks import load_expected

    expected = load_expected()
    signal.signal(signal.SIGALRM, _alarm)
    out = {"setup_s": setup_s, "passes": [], "calib_s": []}
    if mode == "run":
        seconds = float(argv[2])
        start = time.perf_counter()
        sets = plan["sets"]
        while True:
            out["calib_s"].append(calibrate())
            jobs = sets[len(out["passes"]) % len(sets)]
            p = run_pass(cli, jobs, expected, JOB_BUDGET_S)
            out["passes"].append(p)
            # Another pass only if at least half of it fits.
            if time.perf_counter() - start + p["wall_s"] / 2 > seconds:
                break
    elif mode == "trace":
        from tracer import Tracer, find_wrappers

        jobs = plan["sets"][0]
        out["calib_s"].append(calibrate())
        out["passes"].append(run_pass(cli, jobs, expected, JOB_BUDGET_S))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, jobs, expected, TRACED_BUDGET_S, tracer)
        finally:
            tracer.restore()
        out["passes"].append(traced)
        out["wrappers_left"] = find_wrappers()
        out["layers"] = tracer.metrics()
        tracer.write_spans(argv[2])
    else:
        raise SystemExit("unknown mode %r" % mode)
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    result = main(sys.argv[1:])
    sys.stdout.write(json.dumps(result) + "\n")
