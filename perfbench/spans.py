"""Spans around the public functions of every soldens module, installed
from outside the package.

`Tracer.install()` replaces each module-level function of the soldens
modules, in every soldens namespace that holds it (so
`soldens.games.solve_lp_max` is wrapped as well as
`soldens.simplex.solve_lp_max`), with a wrapper that opens a span named
`<module>.<function>`. Spans are aggregated as they close: calls, busy time
(outermost span of that name), self time (duration minus the time covered
by child spans) and errors (spans left by an exception). Work counters are
computed from arguments and return values; the time spent computing them is
taken out of every open span.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

from checks import stirling_upto

LAYERS = ("simplex", "games", "densities", "measures", "groups",
          "partitions", "words", "zline", "perms", "cli")

# Private functions that are layer boundaries in their own right.
EXTRA = ("zline._sieve",)

# The partition-scan entry points whose self time is the scan itself.
SCANS = ("partitions.verify_thm137", "partitions.verify_thm139", "partitions.protasov_search")


def _bits(values):
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "outer", "layer_outer")

    def __init__(self, name, layer, start, outer, layer_outer):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.outer = outer
        self.layer_outer = layer_outer


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # {"games": <module soldens.games>, ...}
        self.saved = []
        self.context = ""
        self.reset()

    # -- bookkeeping ---------------------------------------------------

    def reset(self):
        self.stack = []
        self.depth = defaultdict(int)
        self.layer_depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)
        self.layer_busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.spans = 0

    def _enter(self, name, layer):
        outer = self.depth[name] == 0
        layer_outer = layer is not None and self.layer_depth[layer] == 0
        self.depth[name] += 1
        if layer is not None:
            self.layer_depth[layer] += 1
        self.stack.append(_Frame(name, layer, time.perf_counter(), outer, layer_outer))

    def _exit(self, error):
        end = time.perf_counter()
        f = self.stack.pop()
        dur = end - f.start
        self.spans += 1
        self.calls[f.name] += 1
        self.self_time[f.name] += dur - f.child
        if f.outer:
            self.busy[f.name] += dur
        if f.layer_outer:
            self.layer_busy[f.layer] += dur
        if error:
            self.errors[f.name] += 1
        self.depth[f.name] -= 1
        if f.layer is not None:
            self.layer_depth[f.layer] -= 1
        if self.stack:
            self.stack[-1].child += dur

    def span(self, name, layer, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        self._enter(name, layer)
        try:
            result = fn(*args)
        except BaseException:
            self._exit(True)
            raise
        self._exit(False)
        return result

    def _count(self, name, args, kwargs, result):
        t0 = time.perf_counter()
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        dt = time.perf_counter() - t0
        for f in self.stack:  # counting is not the program's time
            f.start += dt

    # -- installation --------------------------------------------------

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(True)
                raise
            tracer._exit(False)
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        targets = {}
        for layer, mod in self.modules.items():
            for attr, value in vars(mod).items():
                if not isinstance(value, types.FunctionType) or value.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr.startswith("_") and name not in EXTRA:
                    continue
                targets[value] = self._wrap(name, layer, value)
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in targets:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, targets[value])

    def uninstall(self):
        for mod, attr, value in reversed(self.saved):
            setattr(mod, attr, value)
        self.saved = []

    # -- per-layer metrics ---------------------------------------------

    def metrics(self):
        """Per-layer numbers of everything recorded since the last reset."""
        out = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.busy_s"] = self.layer_busy[layer]
            out[f"{layer}.self_s"] = sum(self.self_time[n] for n in names)
            out[f"{layer}.errors"] = sum(self.errors[n] for n in names)

        def fn(name, *fields):
            for field in fields:
                table = {"calls": self.calls, "busy_s": self.busy, "self_s": self.self_time}[field]
                out[f"{name}.{field}"] = table[name]

        lp = "simplex.solve_lp_max"
        fn(lp, "calls", "busy_s")
        out[f"{lp}.lp_cells"] = self.counts["lp_cells"]
        out[f"{lp}.max_out_bits"] = self.counts["lp_bits"]
        self._ratio(out, lp, "lp")
        for kind in ("sigma_r", "extremal"):
            out[f"{lp}.{kind}.calls"] = self.counts[f"lp:{kind}:calls"]
            self._ratio(out, f"{lp}.{kind}", f"lp:{kind}")
        fn("games.solve_game", "calls", "self_s")
        for name in ("games.eval_extremal", "games.sigma_R_via_game", "games.intersection_number"):
            fn(name, "busy_s", "self_s")
        fn("partitions.cov", "calls", "busy_s")
        self._ratio(out, "partitions.cov", "cov")
        fn("partitions.pack", "calls", "busy_s")
        out["partitions.scan.partitions"] = self.counts["partitions"]
        out["partitions.scan.self_s"] = sum(self.self_time[n] for n in SCANS)
        fn("partitions.odd_group_check", "busy_s")
        fn("partitions.difference_power_subgroup", "busy_s")
        for name in ("groups.difference_set", "groups.left_translate", "groups.build_group"):
            fn(name, "calls", "busy_s")
        fn("densities.density_bruteforce", "busy_s")
        fn("measures.sup_translates", "busy_s")
        fn("words.all_reduced_words", "busy_s")
        out["words.all_reduced_words.words"] = self.counts["words"]
        fn("words.fgroup_row_count", "calls", "busy_s")
        fn("zline._sieve", "busy_s")
        out["zline._sieve.limit"] = self.counts["sieve_limit"]
        fn("zline.battery", "busy_s")
        fn("perms.conjugation_witness", "calls", "busy_s")
        fn("cli.run", "self_s")
        fn("cli.build_parser", "busy_s")
        fn("cli.emit", "busy_s")
        return out

    def _ratio(self, out, prefix, key):
        """Distinct inputs over calls; the base is `<prefix>.calls`."""
        total = self.counts[f"{key}:calls"]
        distinct = len(self.distinct[key])
        out[f"{prefix}.distinct"] = distinct
        out[f"{prefix}.distinct_ratio"] = distinct / total if total else 0.0


# -- work counters, computed from arguments and return values -------------


def _lp(tracer, args, kwargs, result):
    c, a_rows, b = args
    key = (tuple(c), tuple(tuple(r) for r in a_rows), tuple(b))
    objective, x, duals = result
    tracer.counts["lp_cells"] += len(a_rows) * len(c)
    tracer.counts["lp_bits"] = max(tracer.counts["lp_bits"], _bits([objective, *x, *duals]))
    for scope in ("lp", f"lp:{tracer.context}"):
        tracer.counts[f"{scope}:calls"] += 1
        tracer.distinct[scope].add(key)


def _cov(tracer, args, kwargs, result):
    group, a = args
    tracer.counts["cov:calls"] += 1
    tracer.distinct["cov"].add((group.label, group.order, a.members))


def _verdict(tracer, args, kwargs, result):
    tracer.counts["partitions"] += result.partitions_checked


def _protasov(tracer, args, kwargs, result):
    group, n = args
    if result is None:  # the scan ran to the end
        tracer.counts["partitions"] += stirling_upto(group.order, n)


def _words(tracer, args, kwargs, result):
    tracer.counts["words"] += len(result)


def _sieve(tracer, args, kwargs, result):
    tracer.counts["sieve_limit"] += args[0]


_HOOKS = {
    "simplex.solve_lp_max": _lp,
    "partitions.cov": _cov,
    "partitions.verify_thm137": _verdict,
    "partitions.verify_thm139": _verdict,
    "partitions.protasov_search": _protasov,
    "words.all_reduced_words": _words,
    "zline._sieve": _sieve,
}
