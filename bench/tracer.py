"""Per-layer tracing of exchnet from outside the package.

The layers are the modules of ``src/exchnet``.  ``Tracer.install`` rebinds
every module namespace and class attribute inside ``exchnet`` that holds a
traced function (module-level ``from .x import f`` copies and the package
re-exports included; imports inside function bodies read the patched module
attribute at call time), and ``Tracer.uninstall`` puts the originals back.

A traced function is either a span (name, start, end, parent, kept in memory
until the run ends) or, for the three very hot functions, a leaf counter that
adds its calls and elapsed time without recording a span.  A span's self time
is its duration minus the part of it covered by child spans and minus the
leaf time it incurred directly.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# (layer metric name, module, attribute path): one span per call.
SPANS = [
    ("lp.solve_feasibility", "exchnet.lp", "solve_feasibility"),
    ("graphs.enumerate_classes", "exchnet.graphs", "enumerate_classes"),
    ("counting.sigma", "exchnet.counting", "sigma"),
    ("counting.r_count", "exchnet.counting", "r_count"),
    ("mobius.mobius_from_class_distribution", "exchnet.mobius",
     "mobius_from_class_distribution"),
    ("mobius.exch_joint_from_mobius", "exchnet.mobius", "exch_joint_from_mobius"),
    ("mobius.lattice", "exchnet.mobius", "labeled_mobius_from_joint"),
    ("mobius.lattice", "exchnet.mobius", "joint_from_labeled_mobius"),
    ("mobius.lattice", "exchnet.mobius", "labeled_from_exchangeable"),
    ("mobius.lattice", "exchnet.mobius", "exchangeable_from_labeled"),
    ("optimize.maximize_on_simplex", "exchnet.optimize", "maximize_on_simplex"),
    ("optimize.minimize_violation_on_simplex", "exchnet.optimize",
     "minimize_violation_on_simplex"),
    ("estimation.exch_mle", "exchnet.estimation", "exch_mle"),
    ("estimation.dissociated_mle", "exchnet.estimation", "dissociated_mle"),
    ("estimation.ergm_fit", "exchnet.estimation", "ergm_fit"),
    ("estimation.ergm_eval", "exchnet.estimation", "ergm_eval"),
    ("estimation.ergm_stats", "exchnet.estimation", "ergm_stats"),
    ("estimation.degree_collision_classes", "exchnet.estimation",
     "degree_collision_classes"),
    ("extendability.extendable_check", "exchnet.extendability",
     "extendable_check"),
    ("extendability.dissociated_extendable_check", "exchnet.extendability",
     "dissociated_extendable_check"),
    ("cli.main", "exchnet.cli", "main"),
]

# Hot functions (up to ~270k calls per fit): counted and timed, no span.
LEAVES = [
    ("graphs.class_of", "exchnet.graphs", "UnlabeledClass.of"),
    ("graphs.class_of", "exchnet.graphs", "canonical_form"),
    ("counting.inj", "exchnet.counting", "inj"),
    ("optimize.project_to_simplex", "exchnet.optimize", "project_to_simplex"),
]

# Every public function defined in these modules is a span.
WHOLE_MODULES = ["exchnet.dependence", "exchnet.genmodels", "exchnet.serialize"]

LAYERS = ["lp", "graphs", "counting", "mobius", "optimize", "estimation",
          "extendability", "serialize", "dependence", "genmodels"]

CACHED_MODULES = ["graphs", "counting"]


def _resolve(module: str, path: str):
    """The function object at ``module.path``, unwrapping classmethods."""
    owner = importlib.import_module(module)
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[last]
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _exchnet_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "exchnet" or name.startswith("exchnet."))
    ]


def _bindings(target) -> list:
    """Every (owner, attribute, raw value) inside exchnet that binds target."""
    found = []
    classes = []
    for mod in _exchnet_modules():
        for name, val in vars(mod).items():
            if val is target:
                found.append((mod, name, val))
            elif inspect.isclass(val) and val.__module__.startswith("exchnet"):
                classes.append(val)
    for cls in dict.fromkeys(classes):
        for name, val in vars(cls).items():
            func = getattr(val, "__func__", val)
            if func is target:
                found.append((cls, name, val))
    return found


def self_times(spans: list) -> list:
    """Self time of each span ``[name, start, end, parent, leaf_s]``: its
    duration minus the union of its children's intervals (clipped to it)
    minus the leaf time it incurred directly."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for k, (name, start, end, parent, leaf_s) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(k, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered - leaf_s)
    return out


class Tracer:
    """Spans and counters of one run; install, run, uninstall, report."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(float)
        self.in_leaf = False
        self.patched: list = []
        self.wrappers: dict = {}

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, func):
        after = _INSPECT.get(name)

        def traced(*args, **kwargs):
            rec = [name, self.clock(), 0.0, self.stack[-1] if self.stack else -1, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self.stack.pop()
            if after is not None:
                after(self.counts, result)
            return result

        return self._mark(traced, func)

    def leaf(self, name: str, func):
        def counted(*args, **kwargs):
            if self.in_leaf:
                return func(*args, **kwargs)
            self.in_leaf = True
            self.counts[name + ".calls"] += 1
            start = self.clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.in_leaf = False
                self.counts[name + ".self_s"] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][4] += elapsed

        return self._mark(counted, func)

    def _mark(self, wrapper, func):
        wrapper.__name__ = func.__name__
        wrapper.__wrapped__ = func
        self.wrappers[id(wrapper)] = wrapper
        return wrapper

    # -- patching --------------------------------------------------------

    @staticmethod
    def targets() -> list:
        """(name, kind, function) for every traced function."""
        out = [(n, "span", _resolve(m, p)) for n, m, p in SPANS]
        out += [(n, "leaf", _resolve(m, p)) for n, m, p in LEAVES]
        for modname in WHOLE_MODULES:
            mod = importlib.import_module(modname)
            layer = modname.split(".")[1]
            for name, val in sorted(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == modname):
                    out.append((f"{layer}.{name}", "span", val))
        return out

    def install(self) -> None:
        for name, kind, func in self.targets():
            wrapper = (self.span if kind == "span" else self.leaf)(name, func)
            for owner, attr, raw in _bindings(func):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(wrapper)
                else:
                    new = wrapper
                setattr(owner, attr, new)
                self.patched.append((owner, attr, raw))

    def uninstall(self) -> list:
        """Restore every binding; return a list of leftovers (empty if clean)."""
        for owner, attr, raw in reversed(self.patched):
            setattr(owner, attr, raw)
        left = [
            f"{owner.__name__}.{attr}"
            for owner, attr, raw in self.patched
            if vars(owner)[attr] is not raw
        ]
        for mod in _exchnet_modules():
            for name, val in vars(mod).items():
                if id(getattr(val, "__func__", val)) in self.wrappers:
                    left.append(f"{mod.__name__}.{name}")
                elif inspect.isclass(val):
                    left += [
                        f"{val.__name__}.{a}" for a, v in vars(val).items()
                        if id(getattr(v, "__func__", v)) in self.wrappers
                    ]
        self.patched = []
        return left

    # -- report ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, times relative to the first, as gzipped JSON."""
        names = sorted({rec[0] for rec in self.spans})
        index = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[name], round(start - t0, 7), round(end - t0, 7), parent, round(leaf, 7)]
            for name, start, end, parent, leaf in self.spans
        ]
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "leaf_s"],
                       "names": names, "spans": rows}, f)

    def metrics(self, caches: dict) -> dict:
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        layer_s = defaultdict(float)
        outer_serialize = 0
        for rec, s in zip(self.spans, selfs):
            name, parent = rec[0], rec[3]
            calls[name] += 1
            self_s[name] += s
            layer = name.split(".")[0]
            layer_s[layer] += s
            if layer == "serialize" and (
                parent < 0 or not self.spans[parent][0].startswith("serialize.")
            ):
                outer_serialize += 1
        for key, val in self.counts.items():
            if key.endswith(".self_s"):
                layer_s[key.split(".")[0]] += val
        c = self.counts
        out = {}
        for name in ("lp.solve_feasibility", "graphs.enumerate_classes",
                     "counting.sigma", "counting.r_count",
                     "mobius.mobius_from_class_distribution",
                     "mobius.exch_joint_from_mobius",
                     "optimize.maximize_on_simplex",
                     "optimize.minimize_violation_on_simplex", "cli.main"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("graphs.class_of", "counting.inj"):
            out[f"{name}.calls"] = c[f"{name}.calls"]
            out[f"{name}.self_s"] = c[f"{name}.self_s"]
        out["optimize.project_to_simplex.calls"] = c["optimize.project_to_simplex.calls"]
        for name in ("mobius.lattice", "estimation.dissociated_mle",
                     "estimation.ergm_fit", "estimation.exch_mle",
                     "extendability.extendable_check",
                     "extendability.dissociated_extendable_check"):
            out[f"{name}.self_s"] = self_s[name]
        out["lp.pivots"] = c["lp.pivots"]
        out["optimize.outer_iters"] = c["optimize.outer_iters"]
        out["optimize.useful_start_ratio"] = _ratio(
            c["optimize.useful"], c["optimize.attempts"])
        out["estimation.ergm_fit.newton_iters"] = c["estimation.newton_iters"]
        out["extendability.shortcut_ratio"] = _ratio(
            c["extendability.shortcut"],
            calls["extendability.dissociated_extendable_check"])
        out["serialize.calls"] = outer_serialize
        out["serialize.bytes_out"] = c["serialize.bytes_out"]
        out["dependence.ci_test.calls"] = calls["dependence.ci_test"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer]
        for layer in CACHED_MODULES:
            out[f"{layer}.cache_hit_ratio"] = _ratio(caches[layer][0], sum(caches[layer]))
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _pivots(counts, res):
    counts["lp.pivots"] += res.pivots


def _auglag(counts, res):
    counts["optimize.attempts"] += 1
    counts["optimize.outer_iters"] += res.outer_iters
    kkt_ok = math.isnan(res.kkt_residual) or res.kkt_residual <= 1e-6
    if res.max_violation <= 1e-8 and kkt_ok:
        counts["optimize.useful"] += 1


def _newton(counts, rep):
    counts["estimation.newton_iters"] += rep.iterations


def _shortcut(counts, rep):
    if rep.method == "er-candidate":
        counts["extendability.shortcut"] += 1


def _bytes(counts, text):
    counts["serialize.bytes_out"] += len(text.encode())


# Result inspection for spans whose return value carries a count.
_INSPECT = {
    "lp.solve_feasibility": _pivots,
    "optimize.maximize_on_simplex": _auglag,
    "optimize.minimize_violation_on_simplex": _auglag,
    "estimation.ergm_fit": _newton,
    "extendability.dissociated_extendable_check": _shortcut,
    "serialize.dump_json": _bytes,
}


def cache_counts() -> dict:
    """(hits, misses) summed over the lru caches defined in each layer."""
    out = {}
    for layer in CACHED_MODULES:
        mod = sys.modules[f"exchnet.{layer}"]
        hits = misses = 0
        for val in vars(mod).values():
            info = getattr(val, "cache_info", None)
            if info is not None and getattr(val, "__module__", "") == mod.__name__:
                ci = info()
                hits += ci.hits
                misses += ci.misses
        out[layer] = (hits, misses)
    return out


def self_test() -> list:
    """Check the self-time arithmetic and the recording on known timings."""
    errors = []
    spans = [
        ["root", 0.0, 10.0, -1, 0.5],
        ["a", 1.0, 4.0, 0, 0.0],
        ["b", 3.0, 6.0, 0, 0.0],     # overlaps a: union [1, 6]
        ["c", 8.0, 12.0, 0, 0.0],    # clipped to the parent: [8, 10]
        ["d", 2.0, 3.0, 1, 0.25],
    ]
    want = [2.5, 2.0, 3.0, 4.0, 0.75]
    got = self_times(spans)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        errors.append(f"self_times {got} != {want}")

    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    hot_w = tr.leaf("x.hot", lambda: 1)
    inner_w = tr.span("x.inner", lambda: hot_w())
    outer_w = tr.span("x.outer", lambda: (inner_w(), hot_w()))
    outer_w()
    # clock: outer 0, inner 1, hot 2..3, inner end 4, hot 5..6, outer end 7
    got = self_times(tr.spans)
    if got != [3.0, 2.0] or tr.counts["x.hot.calls"] != 2:
        errors.append(f"recorded self times {got}, counts {dict(tr.counts)}")
    return errors
