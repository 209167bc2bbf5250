"""Command line interface.

Subcommands: ``generate`` (emit groupoid JSON), ``validate`` (axiom
check), ``compute`` (orbits, isotropy, induced modules, annihilators,
stalks, primitive ideals), ``verify`` (the theorem checks, reported as
JSON lines or a plain table).

Exit codes: 0 success / all verdicts verified, 1 refuted or other
failure, 2 malformed input, 3 enumeration bound exceeded.  Output for a
fixed instance, options and seed is byte-identical across runs; wall
times are only attached under ``--timings``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import AlgebraElement
from .errors import BoundExceededError, ConstructionError, GpdalgError
from .groupoid import (
    FiniteGroupoid,
    action_groupoid,
    cyclic_table,
    disjoint_union,
    group_groupoid,
    isotropy,
    orbits,
    pair_groupoid,
    validate,
)
from .ideals import enumerate_all_ideals, ideal_from_generators
from .induction import induce, induced_annihilator_direct
from .modules import (
    DEFAULT_BOUND,
    regular_module,
    sign_module,
    simple_modules_group,
    trivial_module,
)
from .rings import ring_from_spec
from .sheaves import regular_sheaf
from .suite import (
    enumerate_primitive_ideals,
    verify_ideal_is_intersection,
    verify_primitive_single_inducer,
    verify_primitive_ideals,
)


def parse_generator_spec(spec: str) -> FiniteGroupoid:
    """Build a groupoid from a compact spec.

    Pieces are ``pair:N``, ``group:zN`` and ``action:zN:i0,i1,...`` (the
    images of the points under the group generator); pieces joined with
    ``+`` are combined by disjoint union.
    """
    parts = spec.split("+")
    gs = []
    for part in parts:
        fields = part.strip().split(":")
        kind = fields[0]
        if kind == "pair" and len(fields) == 2:
            gs.append(pair_groupoid(_int(fields[1], "pair size")))
        elif kind == "group" and len(fields) == 2:
            gs.append(group_groupoid(cyclic_table(_cyclic_order(fields[1]))))
        elif kind == "action" and len(fields) == 3:
            k = _cyclic_order(fields[1])
            gen = tuple(_int(x, "permutation entry")
                        for x in fields[2].split(","))
            if sorted(gen) != list(range(len(gen))):
                raise ConstructionError("%r is not a permutation of 0..%d"
                                        % (list(gen), len(gen) - 1))
            perms = [tuple(range(len(gen)))]
            cur = gen
            for _ in range(k - 1):
                perms.append(cur)
                cur = tuple(gen[x] for x in cur)
            if cur != perms[0]:
                raise ConstructionError(
                    "permutation %r does not have order dividing %d"
                    % (list(gen), k))
            gs.append(action_groupoid(cyclic_table(k), perms))
        else:
            raise ConstructionError("bad generator spec piece %r" % part)
    g = gs[0]
    for extra in gs[1:]:
        g = disjoint_union(g, extra)
    return g


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConstructionError("bad %s %r: not an integer" % (what, text))


def _cyclic_order(name: str) -> int:
    if not name.startswith("z"):
        raise ConstructionError("only cyclic groups zN are supported, got %r"
                                % name)
    try:
        k = int(name[1:])
    except ValueError:
        raise ConstructionError("bad group name %r" % name)
    if k < 1:
        raise ConstructionError("group order must be positive")
    return k


def _load_json(text, what: str):
    """JSON from str or bytes; undecodable bytes, bad syntax and nesting
    too deep for the decoder are malformed input."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConstructionError("invalid %s: %s" % (what, exc))


def _read_groupoid(infile: str) -> FiniteGroupoid:
    """Groupoid JSON from a file, or from stdin when `infile` is "-"."""
    if infile == "-":
        raw = sys.stdin.read()
    else:
        with open(infile, "rb") as fh:
            raw = fh.read()
    return FiniteGroupoid.from_json_dict(_load_json(raw, "JSON"))


def _load_groupoid(args) -> FiniteGroupoid:
    if getattr(args, "gen", None):
        g = parse_generator_spec(args.gen)
    elif getattr(args, "infile", None):
        g = _read_groupoid(args.infile)
    else:
        raise ConstructionError("need --gen or --in")
    errs = validate(g)
    if errs:
        raise ConstructionError("invalid groupoid: %s" % errs[0])
    return g


def _resolve_module(args, g, ring):
    G = isotropy(g, args.object)
    name = args.module
    if name == "trivial":
        return trivial_module(G, ring)
    if name == "sign":
        return sign_module(G, ring)
    if name == "regular":
        return regular_module(G, ring)
    if name.startswith("simple:"):
        idx = _int(name.split(":", 1)[1], "simple module index")
        sims = simple_modules_group(G, ring, bound=args.bound)
        if not 0 <= idx < len(sims):
            raise ConstructionError("simple module index %d out of range "
                                    "(%d available)" % (idx, len(sims)))
        return sims[idx]
    raise ConstructionError("unknown module spec %r" % name)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def cmd_generate(args) -> int:
    if args.kind == "union":
        spec = "+".join(args.params)
    else:
        spec = ":".join([args.kind] + args.params)
    _emit(args, _dump(parse_generator_spec(spec).to_json_dict()))
    return 0


def cmd_validate(args) -> int:
    g = _read_groupoid("-" if args.infile is None else args.infile)
    errs = validate(g)
    _emit(args, _dump({"valid": not errs, "violations": errs}))
    return 0 if not errs else 1


def cmd_compute(args) -> int:
    g = _load_groupoid(args)
    ring = ring_from_spec(args.ring)
    if args.what == "orbits":
        orb = orbits(g)
        _emit(args, _dump({"classes": [list(c) for c in orb.classes],
                           "representatives": list(orb.representatives)}))
        return 0
    if args.what == "isotropy":
        G = isotropy(g, args.object)
        _emit(args, _dump({"base": G.base, "arrows": list(G.arrow_ids),
                           "table": [list(r) for r in G.table],
                           "identity": G.identity}))
        return 0
    if args.what == "induce":
        N = _resolve_module(args, g, ring)
        rho = induce(g, ring, args.object, N)
        _emit(args, _dump(rho.to_json_dict()))
        return 0
    if args.what == "annihilator":
        N = _resolve_module(args, g, ring)
        J = induced_annihilator_direct(g, ring, args.object, N)
        _emit(args, _dump(J.to_json_dict()))
        return 0
    if args.what == "stalks":
        S = regular_sheaf(g, ring)
        _emit(args, _dump(S.to_json_dict()))
        return 0
    if args.what == "simple-modules":
        G = isotropy(g, args.object)
        sims = simple_modules_group(G, ring, bound=args.bound)
        _emit(args, _dump([{"dim": N.dim,
                            "matrix_ring": N.matrix_ring.spec_string(),
                            "matrices": [M.entry_strings()
                                         for M in N.mats]}
                           for N in sims]))
        return 0
    if args.what == "primitive-ideals":
        prims = enumerate_primitive_ideals(g, ring, bound=args.bound)
        _emit(args, _dump([J.to_json_dict() for J in prims]))
        return 0
    raise ConstructionError("unknown computation %r" % args.what)


def _report_exit(reports) -> int:
    if any(r.verdict == "skipped" for r in reports):
        return 3
    if any(r.verdict == "refuted" for r in reports):
        return 1
    return 0


def _render_reports(args, reports) -> str:
    if args.format == "json":
        return "".join(_dump(dict(r.to_json_dict(include_timing=args.timings),
                                  seed=args.seed))
                       for r in reports)
    lines = []
    for r in reports:
        extra = "  (%s)" % r.reason if r.reason else ""
        if args.timings:
            extra += "  [%.3fs]" % r.wall_time
        lines.append("%-20s %-24s %-6s %s%s"
                     % (r.check, r.instance, r.ring, r.verdict, extra))
    counts = {"verified": 0, "refuted": 0, "skipped": 0}
    for r in reports:
        counts[r.verdict] += 1
    lines.append("%d verified, %d refuted, %d skipped"
                 % (counts["verified"], counts["refuted"], counts["skipped"]))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    # Both flags pick the ideals ideal-intersection tests; they exclude
    # each other, and the other checks take no ideal.
    if args.check != "ideal-intersection":
        for flag, given in (("--all-ideals", args.all_ideals),
                            ("--ideal-gens", args.ideal_gens is not None)):
            if given:
                raise ConstructionError("%s applies only to "
                                        "ideal-intersection" % flag)
    elif args.all_ideals and args.ideal_gens is not None:
        raise ConstructionError("--all-ideals and --ideal-gens exclude "
                                "each other")
    g = _load_groupoid(args)
    ring = ring_from_spec(args.ring)
    name = args.gen if getattr(args, "gen", None) else "file"
    reports = []
    if args.check == "ideal-intersection":
        if args.all_ideals:
            ideals = enumerate_all_ideals(g, ring, bound=args.bound)
            for i, I in enumerate(ideals):
                reports.append(verify_ideal_is_intersection(
                    g, ring, I, instance="%s#%d" % (name, i)))
        else:
            gens = []
            if args.ideal_gens:
                vectors = _load_json(args.ideal_gens, "--ideal-gens JSON")
                if not (isinstance(vectors, list)
                        and all(isinstance(v, list) and len(v) == g.n_arrows
                                for v in vectors)):
                    raise ConstructionError(
                        "--ideal-gens must be a list of coefficient lists "
                        "of length %d" % g.n_arrows)
                gens = [AlgebraElement(g, ring, v) for v in vectors]
            I = ideal_from_generators(g, ring, gens)
            reports.append(verify_ideal_is_intersection(g, ring, I,
                                                        instance=name))
    elif args.check == "primitive-single":
        # The walk's simples, in simple_modules_group's order: the
        # instance names @u#i and the printed bases follow it.
        for u in orbits(g).representatives:
            for i, N in enumerate(simple_modules_group(
                    isotropy(g, u), ring, bound=args.bound)):
                reports.append(verify_primitive_single_inducer(
                    g, ring, induce(g, ring, u, N),
                    instance="%s@%d#%d" % (name, u, i), bound=args.bound))
    elif args.check == "primitive-ideals":
        reports.append(verify_primitive_ideals(
            g, ring, instance=name, bound=args.bound))
    else:
        raise ConstructionError("unknown check %r" % args.check)
    _emit(args, _render_reports(args, reports))
    return _report_exit(reports)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gpdalg",
        description="finite groupoid convolution algebras: induced modules, "
                    "disintegration, primitive ideals")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", metavar="FILE",
                       help="groupoid JSON file, - for stdin")
        p.add_argument("--gen", metavar="SPEC",
                       help="generator spec, e.g. pair:2, group:z4, "
                            "action:z2:1,0,2, group:z2+pair:1")
        p.add_argument("--ring", default="q",
                       help="q, fp:<p> or zn:<n> (default q)")
        p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                       help="cap on the vectors one search enumerates, "
                            "counted as q^k for a k-dimensional space: "
                            "the hom maps that pick maximal submodules "
                            "(simple-modules, simple:<i>, "
                            "primitive-single), Norton kernels no word "
                            "decides, each "
                            "isotropy algebra's ideals behind "
                            "--all-ideals (q^|G_u| per orbit), and the "
                            "number of ideals they combine to")
        p.add_argument("--out", metavar="FILE", help="write output here")

    p = sub.add_parser("generate", help="emit a groupoid as JSON")
    p.add_argument("kind", choices=["pair", "group", "action", "union"])
    p.add_argument("params", nargs="+")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check the groupoid axioms")
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="groupoid JSON file, - for stdin (default)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compute", help="run one computation")
    p.add_argument("what", choices=["orbits", "isotropy", "induce",
                                    "annihilator", "stalks",
                                    "simple-modules", "primitive-ideals"])
    common(p)
    p.add_argument("--object", type=int, default=0,
                   help="base object for isotropy or induction")
    p.add_argument("--module", default="trivial",
                   help="trivial, sign, regular or simple:<i>")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run a theorem check suite")
    p.add_argument("check", choices=["ideal-intersection", "primitive-single",
                                     "primitive-ideals"])
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in JSON reports; changes no result")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in reports")
    p.add_argument("--all-ideals", action="store_true",
                   help="run over every ideal (finite rings: fp or "
                        "zn), found orbit by orbit from the ideals of "
                        "the isotropy group algebras")
    p.add_argument("--ideal-gens", metavar="JSON",
                   help="coefficient vectors generating the ideal to test")
    p.set_defaults(func=cmd_verify)
    return ap


# One parser per process: each build costs ~1 ms and leaves cyclic garbage.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "bound", 1) < 1:
            raise ConstructionError("--bound must be at least 1, got %d"
                                    % args.bound)
        return args.func(args)
    except BoundExceededError as exc:
        print("bound exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable --in, unwritable --out
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except GpdalgError as exc:
        print("error (%s): %s" % (exc.code, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
