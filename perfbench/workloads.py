"""The benchmark's workloads: CLI jobs on seeded, arrow-relabelled inputs.

Each workload is a list of CLI jobs run back to back (closed loop, one
client).  A job names its instance by generator spec; the seed picks
random arrow relabellings of every instance (``relabel_arrows``), and the
relabelled groupoid reaches the CLI as ``--in`` JSON, so the program sees
only the generated inputs.  Jobs of one workload that name the same spec
share one relabelled input file.

Relabelling changes the work (search orders, early exits), by up to a
factor of 1.7 on one job.  So a run draws ``SETS`` independent input
sets from its seed, and pass p of the run uses set p: the median over
passes then reflects the workload, not one lucky or unlucky relabelling.
Set 0 of seed 0 is the identity relabelling, on which stdout digests are
checked.

Why each workload and job exists is written up in README.md next to this
file.
"""

from __future__ import annotations

import json
import os
import random

# (verb, what, spec, ring, extra argv).  ``{gens}`` in the extra argv is
# replaced by the seeded ideal generator (see ``ideal_generator``).
WORKLOADS = {
    # sheaf_of -> rep_validate's m^2 dense matrix products, over q, fp, zn.
    "disintegrate": [
        ("compute", "stalks", "pair:4", "q", ()),
        ("compute", "stalks", "pair:5", "fp:3", ()),
        ("compute", "stalks", "pair:4", "zn:4", ()),
        ("compute", "stalks", "group:z3+pair:3", "q", ()),
        ("compute", "stalks", "action:z4:1,2,3,0", "fp:2", ()),
    ],
    # Ideal closure (_closed_two_sided -> convolve) over Q.  The three
    # group:z18 jobs share one groupoid.  Verify jobs use only group orders
    # whose unit group (Z/n)^x is cyclic.
    "primitive-q": [
        ("compute", "primitive-ideals", "group:z18", "q", ()),
        ("verify", "primitive-ideals", "group:z9+pair:3", "q", ()),
        ("verify", "primitive-single", "action:z2:1,0,2+group:z10", "q", ()),
        ("verify", "ideal-intersection", "group:z18", "q",
         ("--ideal-gens", "{gens}")),
        ("compute", "annihilator", "group:z18", "q",
         ("--module", "simple:3")),
    ],
    # Exhaustive searches over finite fields and Z/n: spins in
    # simple_modules_group, the subspace oracle, the Howell path (zn:8).
    # The simple-modules job costs the same under every relabelling and is
    # the slowest job, which keeps job_max_s steady; the oracle's cost on
    # group:z6 jumps by 1.6x with the arrow order.
    "lattice-fin": [
        ("verify", "primitive-ideals", "pair:2+group:z3", "fp:2", ()),
        ("verify", "primitive-ideals", "group:z6", "fp:3", ()),
        ("compute", "simple-modules", "group:z7", "fp:3", ()),
        ("verify", "primitive-ideals", "group:z8", "zn:8", ()),
        ("verify", "ideal-intersection", "group:z3+pair:2", "fp:2",
         ("--all-ideals",)),
    ],
}

# The ideal-intersection generator is x^(k+d) - x^k in Q[Z/18]: it
# generates the ideal of the components where zeta^d != 1, whatever the
# shift k.  d stays in {2, 3, 6}, whose checks cost about the same.
IDEAL_GEN_ORDER = 18
IDEAL_GEN_STEPS = (2, 3, 6)


SETS = 6


def relabelling(n_arrows: int, seed: int, index: int,
                spec: str) -> list[int]:
    """Arrow permutation of one instance in input set `index`."""
    perm = list(range(n_arrows))
    if seed or index:
        random.Random("%d/%d/%s" % (seed, index, spec)).shuffle(perm)
    return perm


def ideal_generator(seed: int, index: int,
                    perm: list[int]) -> list[list[int]]:
    """Coefficient vector (in the relabelled arrows) of the seeded generator.

    In group:zN the arrow a is the group element a, and relabelling moves
    it to perm[a].
    """
    n = IDEAL_GEN_ORDER
    if seed or index:
        rng = random.Random("%d/%d/ideal" % (seed, index))
        d, k = rng.choice(IDEAL_GEN_STEPS), rng.randrange(n)
    else:
        d, k = 6, 0
    vec = [0] * n
    vec[perm[(k + d) % n]] += 1
    vec[perm[k]] -= 1
    return [vec]


def job_key(verb: str, what: str, spec: str, ring: str, extra) -> str:
    """Seed-independent name of a job, used to look up expected outputs."""
    extra = tuple("gen" if x == "{gens}" else x for x in extra)
    return " ".join((verb, what, spec, ring) + extra)


def build(workload: str, seed: int, workdir: str, sets: int = SETS) -> dict:
    """Write the seeded inputs under `workdir` and return the run plan.

    The plan lists the input files (loaded and validated during set-up)
    and, per input set, the jobs: CLI argv, the key of the expected
    outputs, and whether the inputs are the identity relabelling.
    """
    # Imported here so that a caller can put the working tree's src/ on
    # sys.path first.
    from gpdalg.cli import parse_generator_spec
    from gpdalg.groupoid import relabel_arrows

    if workload not in WORKLOADS:
        raise KeyError("unknown workload %r (have %s)"
                       % (workload, ", ".join(sorted(WORKLOADS))))
    paths = []
    job_sets = []
    for index in range(sets):
        inputs: dict[str, tuple[str, list[int]]] = {}
        jobs = []
        for i, (verb, what, spec, ring, extra) in enumerate(
                WORKLOADS[workload]):
            if spec not in inputs:
                g = parse_generator_spec(spec)
                perm = relabelling(g.n_arrows, seed, index, spec)
                path = os.path.join(workdir, "in%d.json" % len(paths))
                with open(path, "w") as fh:
                    json.dump(relabel_arrows(g, perm).to_json_dict(), fh,
                              sort_keys=True)
                paths.append(path)
                inputs[spec] = (path, perm)
            path, perm = inputs[spec]
            args = [json.dumps(ideal_generator(seed, index, perm))
                    if x == "{gens}" else x for x in extra]
            jobs.append({"id": i, "key": job_key(verb, what, spec, ring,
                                                 extra),
                         "identity": seed == 0 and index == 0,
                         "argv": [verb, what, "--in", path, "--ring", ring]
                         + args})
        job_sets.append(jobs)
    return {"workload": workload, "seed": seed, "inputs": paths,
            "sets": job_sets}
