"""Per-layer spans recorded around the public functions of `crlab`.

The tracer replaces module attributes in memory only: each target function
is looked up by name, and every attribute of the three `crlab` modules that
is bound to that same function object (its home name and any name another
module imported) is swapped for a timing wrapper.  `restore()` puts the
originals back.  A target that does not exist is recorded as absent, so a
later refactor that deletes or stops importing a name does not break the
benchmark.

Spans are aggregated as they close instead of being stored one by one: per
function the call count, the self time and the calls that raised; per
(parent, child) edge the call count and total time.  Self time is a span's
duration minus the time covered by its traced children.  Two counts ride
along: `surfgrp.evaluate.letters` sums the lengths of the evaluated words,
and `crossratio.CurvePair.miss_ratio` is the share of `xi`/`xistar` lookups
whose span contains an `evaluate` span, i.e. that missed the curve cache.
"""

import functools
import time
import types

MODULES = ("surfgrp", "projlin", "crossratio")

# "<module>.<attribute path>" of every traced function.
TARGETS = (
    "surfgrp.sample_boundary",
    "surfgrp.evaluate",
    "surfgrp.translate_point",
    "surfgrp.fixed_points_2x2",
    "projlin.sym_power_rep",
    "projlin.veronese",
    "projlin.veronese_dual",
    "crossratio.CurvePair.xi",
    "crossratio.CurvePair.xistar",
    "crossratio.curve_cr",
    "crossratio.draw_points",
    "crossratio.check_axioms",
    "crossratio.check_invariance",
    "crossratio.period",
    "crossratio.flow_from_cr",
)

EVALUATE = "surfgrp.evaluate"
LOOKUPS = ("crossratio.CurvePair.xi", "crossratio.CurvePair.xistar")

_MISSING = object()


def metric_names():
    """Names of the per-layer metrics `Tracer.metrics` returns, in order."""
    names = []
    for t in TARGETS:
        names += [f"{t}.calls", f"{t}.self_s", f"{t}.fail"]
    return names + [f"{EVALUATE}.letters", "crossratio.CurvePair.miss_ratio",
                    "trace.absent"]


class _Frame:
    __slots__ = ("name", "start", "child", "saw_evaluate")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.saw_evaluate = name == EVALUATE


class Tracer:
    """Installs span-recording wrappers on `crlab` and aggregates them."""

    def __init__(self, package):
        self.package = package
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.fail = dict.fromkeys(TARGETS, 0)
        self.edges = {}          # (parent or "-", child) -> [calls, total_s]
        self.letters = 0
        self.lookups = 0
        self.misses = 0
        self.absent = []
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def _resolve(self, target):
        mod_name, *path = target.split(".")
        owner = getattr(self.package, mod_name, _MISSING)
        for part in path[:-1]:
            if owner is _MISSING:
                break
            owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return _MISSING, None, path[-1]
        return owner, getattr(owner, path[-1], _MISSING), path[-1]

    def install(self):
        for target in TARGETS:
            owner, fn, attr = self._resolve(target)
            if fn is _MISSING or not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, fn)
            sites = [(owner, attr)]
            if isinstance(owner, types.ModuleType):
                # every module-level alias of the same function object
                for mod_name in MODULES:
                    mod = getattr(self.package, mod_name, None)
                    if mod is None:
                        continue
                    sites += [(mod, k) for k, v in vars(mod).items()
                              if v is fn and (mod, k) != (owner, attr)]
            for site_owner, site_attr in sites:
                self._undo.append((site_owner, site_attr, fn))
                setattr(site_owner, site_attr, wrapper)
        return self

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- span recording -------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        is_lookup = name in LOOKUPS
        is_evaluate = name == EVALUATE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_evaluate:
                word = kwargs.get("word", args[1] if len(args) > 1 else None)
                self.letters += len(getattr(word, "letters", ()))
            frame = _Frame(name, clock())
            stack.append(frame)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                dur = clock() - frame.start
                stack.pop()
                self._close(frame, dur, raised, is_lookup)

        return traced

    def _close(self, frame, dur, raised, is_lookup):
        name = frame.name
        self.calls[name] += 1
        self.self_s[name] += dur - frame.child
        if raised:
            self.fail[name] += 1
        if is_lookup:
            self.lookups += 1
            self.misses += frame.saw_evaluate
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
            parent.saw_evaluate |= frame.saw_evaluate
        edge = self.edges.setdefault((parent.name if parent else "-", name), [0, 0.0])
        edge[0] += 1
        edge[1] += dur

    # -- results --------------------------------------------------------

    def metrics(self):
        out = {}
        for t in TARGETS:
            out[f"{t}.calls"] = self.calls[t]
            out[f"{t}.self_s"] = self.self_s[t]
            out[f"{t}.fail"] = self.fail[t]
        out[f"{EVALUATE}.letters"] = self.letters
        out["crossratio.CurvePair.miss_ratio"] = (
            self.misses / self.lookups if self.lookups else 0.0)
        out["trace.absent"] = len(self.absent)
        return out

    def edge_table(self):
        """[(parent, child, calls, total_s)] sorted by total time."""
        rows = [(p, c, n, t) for (p, c), (n, t) in self.edges.items()]
        return sorted(rows, key=lambda r: -r[3])
