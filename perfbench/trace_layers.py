"""Span tracing around qpart's layers, installed from outside the package.

`Tracer.install()` wraps each traced function under every name that a
qpart module binds it to: `congruence` and `cli` import `eval_eta` by
name, while `series` and `etaq` look `kernels.*` up at call time, so
the kernel functions are replaced on the kernel module itself.  Each
call records a span (name, start, end, parent, job, overhead) in
memory; `export()` hands the spans over at the end of the round and
`uninstall()` puts every original function back.

Counts that come from a call's arguments (multiply-adds, input bits,
DP additions, the largest coefficient) are computed after the call
returns; the time that takes is stored as the span's overhead so that
it is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Span names of the per-layer metrics; other traced functions of a
# layer are named "<layer>.<function>".
_NAMED = {
    ("qpart.series", "TruncatedSeries.__mul__"): "series.mul",
    ("qpart.series", "TruncatedSeries.__pow__"): "series.pow",
    ("qpart.series", "TruncatedSeries.inverse"): "series.inverse",
    ("qpart.series", "TruncatedSeries.dissect"): "series.dissect",
    ("qpart.etaq", "parse_eta"): "etaq.parse",
    ("qpart.etaq", "_pochhammer_coeffs"): "etaq.pochhammer",
    ("qpart.etaq", "pochhammer_f"): "etaq.pochhammer.public",
    ("qpart.etaq", "theta_series"): "etaq.theta",
    ("qpart.partitions", "_count_table"): "partitions.dp",
    ("qpart.partitions", "enumerate_partitions"): "partitions.enumerate",
    ("qpart.cli", "main"): "cli.main",
}
_KERNELS = ("mul", "inv", "mul_mod", "inv_mod")
_PUBLIC_OF = ("qpart.congruence", "qpart.partitions", "qpart.etaq")


def _eval_name(args, kwargs):
    modulus = kwargs.get("modulus", args[2] if len(args) > 2 else None)
    return "etaq.eval.exact" if modulus is None else "etaq.eval.mod"


def _bits(coeffs) -> int:
    return sum(abs(c).bit_length() for c in coeffs)


def _mul_madds(a, b, n, m=None) -> int:
    lb = len(b)
    return sum(min(lb, n - i) for i, x in enumerate(a[:n]) if (x % m if m else x))


def _inv_madds(a, n, m=None) -> int:
    return sum(n - j for j in range(1, min(len(a), n)) if (a[j] % m if m else a[j]))


class Tracer:
    """Collects spans and counters for one round of jobs."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list = []
        self._cache = None

    # -- counters computed from arguments -----------------------------------

    def _add(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _kernel_extra(self, name):
        if name == "mul":
            def extra(args, kwargs, result):
                a, b, n = args[:3]
                self._add("kernels.mul.madds", _mul_madds(a, b, n))
                self._add("kernels.mul.in_bits", _bits(a[:n]) + _bits(b[:n]))
        elif name == "mul_mod":
            def extra(args, kwargs, result):
                a, b, n, m = args[:4]
                self._add("kernels.mul_mod.madds", _mul_madds(a, b, n, m))
        elif name == "inv":
            def extra(args, kwargs, result):
                self._add("kernels.inv.madds", _inv_madds(args[0], args[1]))
        else:
            def extra(args, kwargs, result):
                self._add("kernels.inv_mod.madds", _inv_madds(*args[:3]))
        return extra

    def _series_extra(self, args, kwargs, result):
        coeffs = getattr(result, "coeffs", None)
        if coeffs:
            bits = max(abs(c).bit_length() for c in coeffs)
            if bits > self.counters.get("series.max_coeff_bits", 0):
                self.counters["series.max_coeff_bits"] = bits

    def _dp_extra(self, args, kwargs, result):
        spec, order = args[:2]
        self._add("partitions.dp.adds",
                  sum(spec.color_count(w) * (order - w) for w in range(1, order)))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (label, t0, clock(), parent, tracer.job, 0.0)
                raise
            t1 = clock()
            stack.pop()
            if extra is not None:
                extra(args, kwargs, result)
            t2 = clock()
            spans[idx] = (label, t0, t2, parent, tracer.job, t2 - t1)
            return result

        return traced

    def _targets(self):
        """(function, span name, extra) for everything traced."""
        from qpart.series import TruncatedSeries

        # The kernel module qpart._backend chose; the pure-Python one if
        # there is no backend choice any more.
        kernels = getattr(sys.modules.get("qpart._backend"), "kernels", None)
        kernels = kernels or sys.modules.get("qpart._kernels_py")
        out = [(getattr(kernels, k), f"kernels.{k}", self._kernel_extra(k))
               for k in _KERNELS if hasattr(kernels, k)]
        etaq = sys.modules["qpart.etaq"]
        self._cache = getattr(etaq, "_pochhammer_coeffs", None)
        for (module, qualname), name in _NAMED.items():
            owner = sys.modules.get(module)
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            extra = None
            if module == "qpart.series" and name != "series.dissect":
                extra = self._series_extra
            elif name == "partitions.dp":
                extra = self._dp_extra
            out.append((owner, name, extra))
        if hasattr(etaq, "eval_eta"):
            out.append((etaq.eval_eta, _eval_name, None))
        seen = {id(fn) for fn, _, _ in out}
        for module in _PUBLIC_OF:
            mod = sys.modules[module]
            layer = module.split(".")[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module and id(fn) not in seen):
                    out.append((fn, f"{layer}.{attr}", None))
        return out, TruncatedSeries

    def install(self) -> None:
        targets, series_cls = self._targets()
        wrappers = {id(fn): self._wrap(fn, name, extra) for fn, name, extra in targets}
        owners = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "qpart" or n.startswith("qpart."))]
        owners.append(series_cls)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def export(self) -> dict:
        """Spans and counters of the round, ready for JSON."""
        counters = dict(self.counters)
        info = getattr(self._cache, "cache_info", None)
        if info is not None:
            stats = info()
            lookups = stats.hits + stats.misses
            counters["etaq.pochhammer.hit_ratio"] = stats.hits / lookups if lookups else 0.0
        return {"spans": self.spans, "counters": counters}


# -- per-layer metrics derived from one traced round ---------------------------

def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits"):
        return "bit"
    if name.endswith("ratio"):
        return "1"
    return "count"


PER_LAYER = [f"kernels.{k}.{m}" for k in _KERNELS for m in ("calls", "self_s", "madds")]
PER_LAYER += ["kernels.mul.in_bits"]
PER_LAYER += [f"series.{s}.{m}" for s in ("mul", "pow", "inverse", "dissect")
              for m in ("calls", "self_s")]
PER_LAYER += ["series.max_coeff_bits",
              "etaq.eval.exact.calls", "etaq.eval.exact.self_s",
              "etaq.eval.mod.calls", "etaq.eval.mod.self_s",
              "etaq.parse.calls", "etaq.parse.self_s",
              "etaq.pochhammer.calls", "etaq.pochhammer.self_s", "etaq.pochhammer.hit_ratio",
              "etaq.theta.self_s", "congruence.self_s",
              "partitions.dp.calls", "partitions.dp.self_s", "partitions.dp.adds",
              "partitions.enumerate.calls", "partitions.enumerate.self_s",
              "cli.self_s", "cli.exit2", "trace.overhead_ratio", "trace.unattributed_s"]
UNITS = {name: _unit(name) for name in PER_LAYER}


def self_times(spans) -> tuple[dict, dict]:
    """Calls and self time per span name; self time is a span's duration
    minus its overhead and minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for i, (name, t0, t1, _, _, overhead) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - overhead - child[i]
    return calls, selfs


def layer_metrics(export: dict, run_s: float) -> dict:
    """Every per-layer metric of one traced round.  trace.overhead_ratio
    and cli.exit2 read 0 here: the caller fills them in from the untraced
    rounds and from the answers."""
    calls, selfs = self_times(export["spans"])
    counters = export["counters"]

    def layer_self(prefix):
        return sum(v for k, v in selfs.items() if k.startswith(prefix))

    out = {}
    for name in PER_LAYER:
        span, _, metric = name.rpartition(".")
        if metric == "calls":
            out[name] = calls.get(span, 0)
        elif metric == "self_s":
            out[name] = selfs.get(span, 0.0)
        else:
            out[name] = counters.get(name, 0)
    out["etaq.pochhammer.self_s"] = layer_self("etaq.pochhammer")
    out["congruence.self_s"] = layer_self("congruence.")
    out["cli.self_s"] = layer_self("cli.")
    # Self times plus the tracer's overheads add up to the durations of
    # the top-level spans; what is left of run_s lies outside every span.
    overhead = sum(span[5] for span in export["spans"])
    out["trace.unattributed_s"] = run_s - sum(selfs.values()) - overhead
    return out
