"""Traced pass: spans and counters around the layers of ``gpdalg``.

The layers are the package's modules: rings -> linalg -> groupoid/algebra
-> ideals/modules -> induction/sheaves -> suite -> cli.  ``Tracer.install``
wraps the public functions of each module (plus the three linalg kernels
``Matrix.__mul__``, ``Matrix.apply``, ``Subspace.reduce`` on their classes
and the private ideal-closure check), in the defining module and in every
``gpdalg`` module that imported the name.  ``Tracer.restore`` puts every
original back.  Nothing under ``src/`` is edited.

A span records (name, start, end, parent, job id).  Self time is a span's
duration minus the part its child spans cover, computed as spans close.
Three kinds of call are cheaper to trace than a full span:

- the linalg kernels and vector helpers, called up to millions of times,
  are "leaves": their time and count are accumulated per name, and their
  duration is charged to the enclosing span, but no span record is kept;
- ``ScalarRing`` methods are only counted (``rings.calls``), with no
  timing, to bound the overhead;
- ``enumerate_subspaces`` is a generator; only its yielded items are
  counted, and the time spent inside it lands in the consuming span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("linalg", "groupoid", "algebra", "ideals", "modules", "induction",
          "sheaves", "suite", "cli")
RING_TAGS = {"rationals": "q", "prime_field": "fp", "modular": "zn"}
KERNELS = ("mat_kernel", "left_kernel", "subspace_preimage",
           "subspace_intersect")
LEAVES = {"linalg.Matrix.__mul__", "linalg.Matrix.apply",
          "linalg.Subspace.reduce", "linalg.vec_add", "linalg.vec_sub",
          "linalg.vec_scale", "linalg.vec_is_zero"}
MARK = "_perfbench_wrapper"


def gpdalg_modules() -> list:
    """The package and every submodule that has been imported."""
    import sys

    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gpdalg"
                                  or name.startswith("gpdalg."))]


def find_wrappers() -> list[str]:
    """Names of every gpdalg attribute that is still a benchmark wrapper."""
    found = []
    for mod in gpdalg_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append("%s.%s" % (mod.__name__, name))
            if inspect.isclass(obj) and obj.__module__.startswith("gpdalg"):
                for attr, val in vars(obj).items():
                    if getattr(val, MARK, False):
                        found.append("%s.%s.%s" % (mod.__name__, name, attr))
    return sorted(set(found))


class Tracer:
    """Spans, per-name call counts and self times, and work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # One entry per recorded span.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack: list[int] = []
        # Time covered by children, one slot per open span; the bottom
        # slot collects top-level spans.
        self._cover: list[float] = [0.0]
        self.job = -1
        self.ring_calls = [0]
        self.counts: dict[str, float] = {}
        self.spin_results: set[int] = set()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, key: str, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, nid, fn, args, kwargs):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._cover.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.span_end[idx] = end
            self._stack.pop()
            dur = end - start
            self.self_s[nid] += dur - self._cover.pop()
            self.calls[nid] += 1
            self._cover[-1] += dur

    def _leaf(self, nid, fn, args, kwargs):
        self._cover.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            self.self_s[nid] += dur - self._cover.pop()
            self.calls[nid] += 1
            self._cover[-1] += dur

    # -- wrappers ----------------------------------------------------

    def _wrap(self, name: str, fn, after=None, name_of=None):
        nid = self.name_id(name)
        run = self._leaf if name in LEAVES else self._span
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    tracer.count(name + ".yielded")
                    yield item
        else:
            def wrapper(*args, **kwargs):
                this = nid if name_of is None else name_of(args)
                result = run(this, fn, args, kwargs)
                if after is not None:
                    after(args, result)
                return result
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, fn):
        box = self.ring_calls

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced callable wherever gpdalg binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        rings = importlib.import_module("gpdalg.rings")
        mods = {name: importlib.import_module("gpdalg." + name)
                for name in LAYERS}
        linalg = mods["linalg"]

        for cls in vars(rings).values():
            if inspect.isclass(cls) and issubclass(cls, rings.ScalarRing):
                for attr, val in list(vars(cls).items()):
                    if inspect.isfunction(val) and not attr.startswith("__"):
                        self._patch(cls, attr, self._counted(val))

        for cls, attr, name in ((linalg.Matrix, "__mul__",
                                 "linalg.Matrix.__mul__"),
                                (linalg.Matrix, "apply",
                                 "linalg.Matrix.apply"),
                                (linalg.Subspace, "reduce",
                                 "linalg.Subspace.reduce")):
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr],
                                              self._after(name)))

        targets = []
        for layer, mod in mods.items():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    targets.append((layer, attr, val))
        targets.append(("ideals", "_closed_two_sided",
                        mods["ideals"]._closed_two_sided))

        bindings = gpdalg_modules()
        for layer, attr, fn in targets:
            name = "%s.%s" % (layer, attr)
            name_of = None
            if name == "linalg.canonical_rows":
                ids = {kind: self.name_id("%s.%s" % (name, tag))
                       for kind, tag in RING_TAGS.items()}
                name_of = lambda args, ids=ids: ids[args[0].kind]
            wrapper = self._wrap(name, fn, self._after(name), name_of)
            for mod in bindings:
                for bound_attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, bound_attr, wrapper)

    def restore(self):
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters computed from arguments and results ----------------

    def _after(self, name: str):
        count = self.count
        if name == "linalg.Matrix.__mul__":
            def madds(args, r):
                if r is not NotImplemented:
                    a, b = args
                    count("matmul.madds", a.nrows * a.ncols * b.ncols)
            return madds
        if name == "modules.rep_validate":
            return lambda args, r: count(
                "rep_validate.products", args[0].groupoid.n_arrows ** 2)
        if name == "ideals._closed_two_sided":
            return lambda args, r: count("closure.closed", r is None)
        if name == "modules.spin":
            return lambda args, r: self.spin_results.add(hash(r))
        if name == "modules.is_invariant":
            return lambda args, r: count("is_invariant.hits", bool(r))
        if name == "linalg.canonical_rows":
            def cells(args, r):
                tag = RING_TAGS[args[0].kind]
                count("canonical_rows.%s.cells_in" % tag,
                      len(args[1]) * args[2])
            return cells
        if name.startswith("suite.verify_"):
            return lambda args, r: count("suite.skipped",
                                         r.verdict == "skipped")
        return None

    # -- results -----------------------------------------------------

    def stat(self, name: str, what: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0 if what == "calls" else 0.0
        return self.calls[nid] if what == "calls" else self.self_s[nid]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls)
                   if n.split(".", 1)[0] == layer)

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass (see README.md)."""
        st, c = self.stat, self.counts.get

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "linalg.matmul.calls": st("linalg.Matrix.__mul__", "calls"),
            "linalg.matmul.madds": c("matmul.madds", 0),
            "linalg.matmul.self_s": st("linalg.Matrix.__mul__", "self"),
            "modules.rep_validate.self_s": st("modules.rep_validate", "self"),
            "modules.rep_validate.products": c("rep_validate.products", 0),
            "ideals.closure_checks": st("ideals._closed_two_sided", "calls"),
            "ideals.closure_pass_ratio": ratio(
                c("closure.closed", 0), st("ideals._closed_two_sided",
                                           "calls")),
            "algebra.convolve.calls": st("algebra.convolve", "calls"),
            "modules.spin.calls": st("modules.spin", "calls"),
            "modules.spin.self_s": st("modules.spin", "self"),
            "modules.spin.distinct_ratio": ratio(
                len(self.spin_results), st("modules.spin", "calls")),
            "modules.is_invariant.calls": st("modules.is_invariant", "calls"),
            "modules.is_invariant.hit_ratio": ratio(
                c("is_invariant.hits", 0), st("modules.is_invariant",
                                              "calls")),
            "modules.is_isomorphic.calls": st("modules.is_isomorphic",
                                              "calls"),
            "modules.annihilator.calls": st("modules.annihilator", "calls"),
            "linalg.apply.calls": st("linalg.Matrix.apply", "calls"),
            "linalg.apply.self_s": st("linalg.Matrix.apply", "self"),
            "linalg.reduce.calls": st("linalg.Subspace.reduce", "calls"),
            "linalg.reduce.self_s": st("linalg.Subspace.reduce", "self"),
            "linalg.enumerate_subspaces.yielded": c(
                "linalg.enumerate_subspaces.yielded", 0),
            "suite.oracle.calls": st("suite.primitive_ideal_oracle",
                                     "calls"),
            "suite.skipped": c("suite.skipped", 0),
            "linalg.canonical_rows.calls": sum(
                st("linalg.canonical_rows." + t, "calls")
                for t in RING_TAGS.values()),
            "linalg.kernel.calls": sum(st("linalg." + k, "calls")
                                       for k in KERNELS),
            "linalg.kernel.self_s": sum(st("linalg." + k, "self")
                                        for k in KERNELS),
            "rings.calls": self.ring_calls[0],
            "induction.calls": self.layer_calls("induction"),
            "sheaves.sheaf_of.calls": st("sheaves.sheaf_of", "calls"),
            "groupoid.orbits.calls": st("groupoid.orbits", "calls"),
            "groupoid.isotropy.calls": st("groupoid.isotropy", "calls"),
        }
        for tag in RING_TAGS.values():
            m["linalg.canonical_rows.%s.cells_in" % tag] = c(
                "canonical_rows.%s.cells_in" % tag, 0)
            m["linalg.canonical_rows.%s.self_s" % tag] = st(
                "linalg.canonical_rows." + tag, "self")
        for layer in LAYERS:
            m[layer + ".self_s"] = self.layer_self_s(layer)
        return m

    def write_spans(self, path: str):
        """Spans as columns: name ids index ``names``; parent -1 is a root."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "job"],
                       "spans": [list(self.span_name), list(self.span_start),
                                 list(self.span_end), list(self.span_parent),
                                 list(self.span_job)]}, fh)
