"""gpdalg benchmark: closed-loop CLI workloads with per-layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the working tree's ``src/`` is
measured, never edited.  The seed picks the inputs (see workloads.py).

``--trace 0`` reports the end-to-end metrics of untraced passes: the
mean over passes of ``wall_s`` and ``cpu_s``, the median over passes of
``job_max_s``, the median ``setup_s`` over several fresh interpreters,
``peak_rss_mib`` and ``ok_ratio``.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics.  Every job's output is checked (checks.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (host, seed,
calibration probe, per-pass figures) is printed before it and written,
with the traced pass's spans, under ``.perfbench-out/`` in the checkout.
README.md maps every metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "job_max_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB", "ok_ratio": "ratio"}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "gpdalg")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def worker(args, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d: %s"
                           % (args[0], proc.returncode,
                              proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_outcomes(passes) -> tuple[int, list[str]]:
    failures = ["%s: %s" % (j["key"], j["failure"])
                for p in passes for j in p["jobs"] if j["failure"]]
    return sum(len(p["jobs"]) for p in passes), failures


def measure(plan_path: str, seconds: float, deadline: float):
    """Untraced passes; returns (end-to-end metrics, run result)."""
    worker(["setup", plan_path], deadline)  # warms the bytecode cache
    setups = [worker(["setup", plan_path], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    res = worker(["run", plan_path, str(seconds)], deadline)
    passes = res["passes"]
    attempted, failures = job_outcomes(passes)
    med, mean = statistics.median, statistics.fmean
    # Passes draw different relabellings, and some jobs' cost is bimodal
    # in the relabelling, so the time to all verdicts is the mean over
    # passes; a median of three bimodal draws jumps between the modes.
    metrics = {
        "wall_s": mean(p["wall_s"] for p in passes),
        "cpu_s": mean(p["cpu_s"] for p in passes),
        "job_max_s": med(max(j["wall_s"] for j in p["jobs"]) for p in passes),
        "setup_s": med(setups),
        "peak_rss_mib": res["peak_rss_mib"],
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    res["setup_samples_s"] = setups
    return metrics, res


def traced(plan_path: str, spans_path: str, deadline: float):
    """One untraced and one traced pass; returns (layer metrics, result)."""
    res = worker(["trace", plan_path, spans_path], deadline)
    if res["wrappers_left"]:
        raise RuntimeError("wrappers survived the traced pass: %s"
                           % res["wrappers_left"])
    base, tr = res["passes"]
    metrics = dict(res["layers"])
    metrics["trace.overhead_ratio"] = tr["wall_s"] / base["wall_s"]
    metrics["host.calib_s"] = res["calib_s"][0]
    metrics["size.src_lines"] = src_lines()
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gpdalg", "cli.py")):
        print("perfbench: no gpdalg sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg": os.getloadavg(), "src_lines": src_lines()}
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        if args.trace:
            metrics, res = traced(plan_path,
                                  os.path.join(OUT_DIR, "spans-%s.json" % tag),
                                  deadline)
            units = layer_units()
        else:
            metrics, res = measure(plan_path, args.seconds, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = job_outcomes(res["passes"])
    record.update(calib_s=res["calib_s"], setup_s=res["setup_s"],
                  setup_samples_s=res.get("setup_samples_s"),
                  peak_rss_mib=res["peak_rss_mib"],
                  passes=[{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                           "job_wall_s": [j["wall_s"] for j in p["jobs"]]}
                          for p in res["passes"]],
                  failures=failures)
    with open(os.path.join(OUT_DIR, "record-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in failures:
        print("FAILED %s" % line)
    print("record %s" % json.dumps(record))
    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
