"""Per-layer spans recorded from outside the program.

`Tracer` wraps each public layer function at every place the library looks
it up (the defining module and every module that imported the name), plus
`Tensor3.__init__`. Each call appends one span (name, parent, start, end,
extra) to an in-memory list; spans are only written out when the run ends.
Self time is a span's duration minus the durations of its direct children,
which nest without overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, public names) for every wrapped layer; a span is "<layer>.<name>".
LAYERS = {
    "moment": ("moment_map", "infinitesimal_action"),
    "tensor": ("apply", "support"),
    "flow": ("flow", "ness_minimality"),
    "family": ("family_data", "halfspace_check"),
    "supports": ("downward_closure", "is_free_support"),
    "construct": ("build_family_tensor", "build_W"),
    "certify": ("certify_family", "certify_named", "stabilizer_blocks", "two_column_obstruction"),
    "reduction": ("reduce_to_s0",),
    "polytope": ("hull_refute", "outer_halfspace"),
    "exactlp": ("in_convex_hull",),
    "jsonio": ("dumps",),
    "cli": ("main",),
}
TENSOR_CLASS = "tensor.Tensor3"

# What a span keeps from its call besides timing: a count the layer produced.
EXTRA = {
    "flow.flow": lambda args, result: result.steps,
    "polytope.hull_refute": lambda args, result: result.samples_checked,
    "supports.downward_closure": lambda args, result: len(result),
    "exactlp.in_convex_hull": lambda args, result: (len(args[0]), bool(result)),
    "jsonio.dumps": lambda args, result: len(result.encode("utf-8")),
}

# Spans that must fire on each workload; a silent one means the trace missed a layer.
EXPECTED = {
    "family_exact": (
        "cli.main", "jsonio.dumps", "family.family_data", "family.halfspace_check",
        "supports.downward_closure", "supports.is_free_support", "construct.build_family_tensor",
        "construct.build_W", "certify.certify_family", "certify.stabilizer_blocks",
        "reduction.reduce_to_s0", "flow.ness_minimality", "moment.moment_map",
        "moment.infinitesimal_action", TENSOR_CLASS, "tensor.apply", "tensor.support",
    ),
    "flow_converge": (
        "cli.main", "jsonio.dumps", "flow.flow", "flow.ness_minimality", "moment.moment_map",
        "moment.infinitesimal_action", TENSOR_CLASS, "tensor.apply", "tensor.support",
        "certify.certify_named", "certify.stabilizer_blocks", "certify.two_column_obstruction",
    ),
    "polytope_refute": (
        "cli.main", "jsonio.dumps", "polytope.hull_refute", "polytope.outer_halfspace",
        "exactlp.in_convex_hull", "supports.downward_closure", "supports.is_free_support",
        TENSOR_CLASS, "tensor.apply", "tensor.support",
    ),
}


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names] + [TENSOR_CLASS]


class Tracer:
    """Context manager installing the wrappers; leaving it restores the library."""

    def __init__(self):
        # Spans are (name, parent index, start, end, extra); parent -1 is a root.
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = extra(args, result) if extra is not None and result is not None else None
                spans[index] = (name, parent, start, end, value)

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"nonfree.{layer}") for layer in LAYERS]
        loaded = [m for key, m in sys.modules.items()
                  if key == "nonfree" or key.startswith("nonfree.")]
        for module, (layer, names) in zip(modules, LAYERS.items()):
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, key, value))
                            setattr(holder, key, wrapper)
        tensor_class = importlib.import_module("nonfree.tensor").Tensor3
        self._restore.append((tensor_class, "__init__", tensor_class.__init__))
        tensor_class.__init__ = self._wrap(TENSOR_CLASS, tensor_class.__init__)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tparent\tstart\tend\textra\n")
            for index, (name, parent, start, end, extra) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\t{extra}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans with indices first..last-1 (one pass)."""
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    extras: defaultdict = defaultdict(list)
    child_time: defaultdict = defaultdict(float)
    in_flow: dict[int, bool] = {}
    moment_in_flow = 0
    for index in range(first, last):
        name, parent, start, end, _ = spans[index]
        if parent >= first:
            child_time[parent] += end - start
    for index in range(first, last):
        name, parent, start, end, extra = spans[index]
        calls[name] += 1
        inclusive[name] += end - start
        self_s[name] += end - start - child_time[index]
        if extra is not None:
            extras[name].append(extra)
        inside = parent >= first and (spans[parent][0] == "flow.flow" or in_flow[parent])
        in_flow[index] = inside
        moment_in_flow += inside and name == "moment.moment_map"

    metrics: dict[str, float] = {}

    def count_and_self(name: str, key: str = "calls") -> None:
        metrics[f"{name}.{key}"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]

    mm = "moment.moment_map"
    count_and_self(mm)
    metrics[f"{mm}.us_per_call"] = 1e6 * _ratio(inclusive[mm], calls[mm])
    count_and_self("moment.infinitesimal_action")
    count_and_self(TENSOR_CLASS, "constructed")
    count_and_self("tensor.apply")
    metrics["tensor.support.self_s"] = self_s["tensor.support"]
    count_and_self("flow.flow")
    steps = sum(extras["flow.flow"])
    metrics["flow.steps"] = steps
    metrics["flow.us_per_step"] = 1e6 * _ratio(inclusive["flow.flow"], steps)
    metrics["flow.moment_calls_per_step"] = _ratio(moment_in_flow, steps)
    count_and_self("flow.ness_minimality")
    count_and_self("family.family_data")
    count_and_self("family.halfspace_check")
    count_and_self("supports.downward_closure")
    metrics["supports.downward_closure.triples_out"] = sum(extras["supports.downward_closure"])
    metrics["supports.is_free_support.self_s"] = self_s["supports.is_free_support"]
    count_and_self("construct.build_family_tensor")
    count_and_self("construct.build_W")
    for name in ("certify_family", "certify_named", "stabilizer_blocks", "two_column_obstruction"):
        metrics[f"certify.{name}.self_s"] = self_s[f"certify.{name}"]
    count_and_self("reduction.reduce_to_s0")
    count_and_self("polytope.hull_refute")
    samples = sum(extras["polytope.hull_refute"])
    metrics["polytope.samples_checked"] = samples
    metrics["polytope.float_fallback_calls"] = samples - calls["exactlp.in_convex_hull"]
    metrics["polytope.outer_halfspace.self_s"] = self_s["polytope.outer_halfspace"]
    lp = "exactlp.in_convex_hull"
    count_and_self(lp)
    metrics[f"{lp}.ms_per_call"] = 1e3 * _ratio(inclusive[lp], calls[lp])
    metrics[f"{lp}.feasible_frac"] = _ratio(sum(feasible for _, feasible in extras[lp]), calls[lp])
    metrics[f"{lp}.columns_mean"] = _ratio(sum(columns for columns, _ in extras[lp]), calls[lp])
    count_and_self("jsonio.dumps")
    metrics["jsonio.dumps.bytes"] = sum(extras["jsonio.dumps"])
    count_and_self("cli.main")
    return metrics


def check_spans(spans: list, workload: str) -> list[str]:
    """Problems with the trace: a missing span, or a child outside its parent."""
    problems = []
    fired = Counter(span[0] for span in spans)
    problems += [f"{name} never fired" for name in EXPECTED[workload] if not fired[name]]
    child_time: defaultdict = defaultdict(float)
    for name, parent, start, end, _ in spans:
        if parent < 0:
            continue
        _, _, parent_start, parent_end, _ = spans[parent]
        if start < parent_start or end > parent_end:
            problems.append(f"{name} span lies outside its parent {spans[parent][0]}")
        child_time[parent] += end - start
    for index, time_in_children in child_time.items():
        name, _, start, end, _ = spans[index]
        if time_in_children > end - start:
            problems.append(f"children of {name} cover more than its span")
    return sorted(set(problems))
