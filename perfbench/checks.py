"""Output checks for benchmark jobs.

A job passes when it exits 0 and its output is right:

- every ``verify`` report must read ``verified``;
- every ``compute`` job's seed-invariant summary (stalk dimension per
  object, or the count and dimensions of the primitive ideals, simple
  modules or annihilator) must equal the value recorded in
  ``expected.json``;
- on the identity relabelling (input set 0 of seed 0) the SHA-256 of
  stdout must equal the recorded digest.

``python3 perfbench/checks.py --record`` rewrites ``expected.json`` from
the working tree; do that only for a deliberate change of output.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def summary(verb: str, what: str, stdout: str):
    """Seed-invariant digest of a job's output."""
    if verb == "verify":
        return {"verdicts": [json.loads(line)["verdict"]
                             for line in stdout.splitlines()]}
    data = json.loads(stdout)
    if what == "stalks":
        return {"stalk_dims": data["stalk_dims"]}
    if what in ("primitive-ideals", "simple-modules"):
        return {"count": len(data), "dims": sorted(d["dim"] for d in data)}
    if what == "annihilator":
        return {"dim": data["dim"]}
    raise ValueError("no summary for %s %s" % (verb, what))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(job: dict, rc, stdout: str, expected: dict):
    """None when the job's output is right, else the reason it is not."""
    if rc != 0:
        return "exit code %r" % (rc,)
    verb, what = job["argv"][0], job["argv"][1]
    try:
        got = summary(verb, what, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output: %s" % exc
    if verb == "verify":
        verdicts = got["verdicts"]
        if not verdicts or any(v != "verified" for v in verdicts):
            return "verdicts %s" % verdicts
    want = expected.get(job["key"])
    if want is None:
        return "no expected output recorded for %r" % job["key"]
    if verb == "compute" and got != want["summary"]:
        return "summary %s, expected %s" % (got, want["summary"])
    if job["identity"] and sha256(stdout) != want["sha256_seed0"]:
        return "stdout digest differs from the recorded one at seed 0"
    return None


def record(path: str = EXPECTED_PATH) -> dict:
    """Run every job of every workload at seed 0 and store its outputs."""
    import contextlib
    import io
    import tempfile

    import worker
    import workloads

    out = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT,
                                     prefix=".perfbench-") as tmp:
        from gpdalg import cli

        for name in workloads.WORKLOADS:
            plan = workloads.build(name, 0, tmp, sets=1)
            for job in plan["sets"][0]:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(job["argv"])
                if rc != 0:
                    raise SystemExit("%s exited %d" % (job["key"], rc))
                text = buf.getvalue()
                out[job["key"]] = {
                    "summary": summary(job["argv"][0], job["argv"][1], text),
                    "sha256_seed0": sha256(text)}
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/checks.py --record")
    sys.path.insert(0, HERE)
    import worker  # noqa: F401  (puts the working tree's src/ on sys.path)
    record()
