"""Property test of the CLI: any argv ends with a documented exit code.

Argv is drawn from a token alphabet of verbs, checks, tiny valid and
malformed generator specs, rings, bounds, ideal generators and module
names, with groupoid JSON on stdin for ``validate`` and ``--in -``.
Whatever the draw, the CLI must exit 0, 1, 2 or 3 (argparse's
usage error is 2) and never let an exception escape as a traceback.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import HealthCheck, event, given, settings, strategies as st

from gpdalg.cli import main


def valid_or_not(valid, malformed):
    """Draw from `valid` five times in six, else from `malformed`.

    Either argument is a strategy or a list to sample from.
    """
    valid, malformed = (x if isinstance(x, st.SearchStrategy)
                        else st.sampled_from(x) for x in (valid, malformed))
    return st.sampled_from([valid] * 5 + [malformed]).flatmap(lambda s: s)


GENS = valid_or_not(
    ["pair:1", "pair:2", "pair:3", "group:z1", "group:z2", "group:z3",
     "group:z4", "pair:1+group:z2", "action:z2:1,0,2"],
    ["pair:x", "pair:0", "group:4", "group:z0", "action:z2",
     "action:z2:1,2", "action:z3:1,0", "action:z2:0,0", "", "+"])

RINGS = valid_or_not(["q", "fp:2", "fp:3", "fp:5", "zn:4", "zn:6", "zn:8"],
                     ["fp:4", "zn:1", "fp:x", "r"])

BOUNDS = valid_or_not(st.integers(1, 4096).map(str), ["0", "-1", "x"])

MODULES = valid_or_not(["trivial", "sign", "regular", "simple:0", "simple:1",
                        "simple:2"],
                       ["simple:9", "simple:-1", "simple:x", "bogus"])

# A JSON coefficient: a number, a numeric string or junk.
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                   st.sampled_from(["1/2", "-2", "a", "1/0", "", None, 1.5,
                                    True, [1], {"a": 1}]))

IDEAL_GENS = st.one_of(
    st.lists(st.lists(COEFFS, min_size=1, max_size=5), max_size=3)
    .map(json.dumps),
    st.sampled_from(['{"a":1}', "[1]", "[[1,2,3]]", "[1", "null", '"x"',
                     "[[" + "9" * 5000 + ", 0]]"]))

# Groupoid JSON read by `validate` and by `--in -`.
STDIN = ["", "{]", "[]", '{"objects": 1}', '{"objects": 1%s}' % ("0" * 5000),
         '{"objects": 1, "arrows": [{"d": 0, "r": 0}], "units": [0], '
         '"comp": [[0, 0, 0]], "inv": [0]}',
         '{"objects": 1, "arrows": [{"d": 0, "r": 0}], "units": [3], '
         '"comp": [[0, 0, 0]], "inv": [0]}',
         '{"objects": 2, "arrows": [1], "units": [], "comp": [], "inv": []}']

COMMON = [st.tuples(st.just("--ring"), RINGS)]

# Report options, which only verify takes.
REPORT = [
    st.tuples(st.just("--format"), st.sampled_from(["json", "text"])),
    st.tuples(st.just("--seed"), st.sampled_from(["0", "7"])),
    st.tuples(st.just("--timings")),
]

# Tokens argparse rejects: an unknown flag, a stray word, a missing value.
JUNK = st.tuples(st.sampled_from(["--bogus", "z2", "--seed"]))

OPTIONS = {
    "compute": valid_or_not(
        st.one_of(*COMMON, st.tuples(st.just("--module"), MODULES),
                  st.tuples(st.just("--object"),
                            st.integers(-1, 3).map(str))),
        JUNK),
    "verify": valid_or_not(
        st.one_of(*COMMON, *REPORT,
                  st.tuples(st.just("--ideal-gens"), IDEAL_GENS),
                  st.tuples(st.just("--all-ideals"))),
        JUNK),
}

TOPICS = {
    "compute": ["orbits", "isotropy", "induce", "annihilator", "stalks",
                "simple-modules", "primitive-ideals"],
    "verify": ["ideal-intersection", "primitive-single", "primitive-ideals"],
}

GENERATE_PARAMS = ["0", "1", "3", "x", "z1", "z3", "z0", "1,0,2", "1,2",
                   "pair:1", "group:z2"]


@st.composite
def argvs(draw):
    # compute and verify, which reach the algebra, come up twice as often.
    verb = draw(st.sampled_from(["compute", "verify", "compute", "verify",
                                 "generate", "validate", "nonsense"]))
    if verb == "generate":
        kind = draw(st.sampled_from(["pair", "group", "action", "union",
                                     "ring"]))
        return [verb, kind] + draw(st.lists(st.sampled_from(GENERATE_PARAMS),
                                            max_size=3))
    if verb not in OPTIONS:
        return [verb]
    source = valid_or_not(st.tuples(st.just("--gen"), GENS), [("--in", "-")])
    argv = [verb, draw(st.sampled_from(TOPICS[verb]))] + list(draw(source))
    for opt in draw(st.lists(OPTIONS[verb], max_size=4)):
        argv.extend(opt)
    # A bound of at most 4096 keeps every exhaustive search small.
    argv.extend(["--bound", draw(BOUNDS)])
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), stdin=st.sampled_from(STDIN))
def test_any_argv_exits_with_a_documented_code(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event("exit %s" % code)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
