"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps the program's public functions at every module
attribute bound to them (``substream`` and ``simulate_final_counts`` are
imported by name into other modules, so patching the defining module alone
would miss those calls).  Each call becomes a span with a name, start, end
and parent; self time is a span's duration minus the time its child spans
cover.  Counters are computed from arguments or results, never read from the
program, and are reported as computed.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "lambda_asg"

# module -> public functions recorded as spans; ``measures`` is traced whole
TRACED = {
    "rng": ["substream"],
    "moran": [
        "jump_rates", "generator_matrix", "absorption_probability",
        "simulate_final_counts",
    ],
    "asg": [
        "line_count_rates", "generate_asg", "propagate_forward",
        "potential_ancestors", "ancestry_consistency_check",
        "simulate_line_count", "stream_asg_to_log", "read_event_log",
    ],
    "limits": [
        "ks_distance", "ks_bootstrap_stderr", "sde_final_values",
        "chain_final_states", "convergence_study", "limit_chain_rates",
        "simulate_limit_chain",
    ],
    "duality": [
        "sampling_matrix", "line_count_generator", "generator_duality_check",
        "pathwise_duality_check", "limit_moment_duality_check",
    ],
    "fixation": [
        "build_fixation_solver", "fixation_probability", "harmonicity_values",
        "defining_identity_residual",
    ],
}

# every traced function, plus the root span of each CLI run or library stage
SPAN_NAMES = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns] + ["cli", "stage"]

# percentiles are reported only for functions called this often over all
# traced passes of a run
MIN_CALLS_FOR_PERCENTILES = 1000


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _bootstrap_counts(args, kwargs, result) -> dict:
    resamples = _arg(args, kwargs, 2, "resamples")
    pooled = len(_arg(args, kwargs, 0, "a")) + len(_arg(args, kwargs, 1, "b"))
    return {"resamples": resamples, "sorted_elements": resamples * pooled}


def _asg_counts(args, kwargs, result) -> dict:
    events = len(result)
    labels = events * result.N
    # uint8 labels plus the float64 uniforms drawn for them, and the four
    # per-event columns
    return {
        "events": events, "labels": labels,
        "bytes_computed": labels * (1 + 8) + events * 32,
    }


def _log_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 4, "path"))}


def _replicates(pos: int):
    return lambda a, k, r: {"replicates": _arg(a, k, pos, "replicates")}


# span name -> (counter names, function of (args, kwargs, result))
COUNTERS = {
    "limits.ks_bootstrap_stderr": (("resamples", "sorted_elements"), _bootstrap_counts),
    "moran.simulate_final_counts": (("replicates",), _replicates(2)),
    "limits.sde_final_values": (("replicates",), _replicates(3)),
    "limits.chain_final_states": (("replicates",), _replicates(3)),
    "duality.pathwise_duality_check": (("replicates",), _replicates(5)),
    "moran.generator_matrix":
        (("states",), lambda a, k, r: {"states": _arg(a, k, 0, "cfg").N + 1}),
    "asg.generate_asg": (("events", "labels", "bytes_computed"), _asg_counts),
    "asg.ancestry_consistency_check":
        (("individuals",), lambda a, k, r: {"individuals": r[0]}),
    "asg.stream_asg_to_log": (("bytes",), _log_bytes),
}


def _public_functions(module) -> list[str]:
    return sorted(
        name for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_")
    )


class Tracer:
    """In-memory span log plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.pooled: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        counter = COUNTERS[name][1] if name in COUNTERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function in the package."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wanted = dict(TRACED)
        wanted["measures"] = _public_functions(sys.modules[f"{PACKAGE}.measures"])
        wrappers = {}
        for short, names in wanted.items():
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += durations[i]
        per: dict[str, dict] = {}
        measures_s = 0.0
        for i, name in enumerate(self.names):
            agg = per.setdefault(name, {"s": 0.0, "self_s": 0.0, "durations": []})
            agg["s"] += durations[i]
            agg["self_s"] += durations[i] - child[i]
            agg["durations"].append(durations[i])
            for key, value in self.counts.get(i, {}).items():
                agg[key] = agg.get(key, 0) + value
            parent = self.parents[i]
            if name.startswith("measures.") and not (
                parent >= 0 and self.names[parent].startswith("measures.")
            ):
                measures_s += durations[i]
        out: dict[str, float] = {"measures.s": measures_s}
        for name in SPAN_NAMES:
            agg = per.get(name, {"s": 0.0, "self_s": 0.0, "durations": []})
            durs = agg.pop("durations")
            self.pooled[name].extend(durs)
            out[f"{name}.calls"] = len(durs)
            for key, value in agg.items():
                out[f"{name}.{key}"] = value
            for key in COUNTERS.get(name, ((), None))[0]:
                out.setdefault(f"{name}.{key}", 0)
        return out

    def percentiles(self) -> dict[str, float]:
        """Median and 99th-percentile call time over all summarized passes;
        0 where there are too few calls."""
        out = {}
        for name, durs in self.pooled.items():
            p50 = p99 = 0.0
            if len(durs) >= MIN_CALLS_FOR_PERCENTILES:
                cuts = statistics.quantiles(durs, n=100)
                p50, p99 = cuts[49] * 1e6, cuts[98] * 1e6
            out[f"{name}.p50_us"] = p50
            out[f"{name}.p99_us"] = p99
        return out

    def write_spans(self, path) -> None:
        """Span log as CSV: index, name, start, end, parent index (-1: root)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.starts[i] - t0:.9f},"
                    f"{self.ends[i] - t0:.9f},{self.parents[i]}\n"
                )


def computed_metric_names() -> list[str]:
    """Counter metrics derived from arguments or results, not measured."""
    return sorted(f"{n}.{k}" for n, (keys, _) in COUNTERS.items() for k in keys)
