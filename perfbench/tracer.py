"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each matchrobust module from the
outside: no program file changes.  A module-level function is rebound in
every ``matchrobust.*`` namespace that holds the original object, because
``cli``, ``robustness`` and ``planar`` import functions by name and would
otherwise keep calling the unwrapped original.  Methods are wrapped on their
class.  Spans stay in memory, each with its job id and parent span, and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

#: Traced functions per module; ``Class.method`` entries are wrapped on the class.
TARGETS = {
    "cli": ("main",),
    "ordinal": (
        "deferred_acceptance",
        "enumerate_stable",
        "ordinal_from_utility_flagged",
        "uniform_profile",
        "distinguishing_profile",
        "OrdinalProfile.__init__",
    ),
    "markets": (
        "UtilityProfile.__init__",
        "Perturbation.__init__",
        "apply_perturbation",
        "RankBasedProfile.utilities",
    ),
    "robustness": (
        "robustness",
        "robustness_by_search",
        "adversarial_witness",
        "preservation_probability",
        "rank_slot_factor_stats",
        "CriticalSpikeSampler.sample",
        "IidUniformFactorSampler.sample",
    ),
    "seeding": ("rng_for",),
    "metric": (
        "MetricSpace.__init__",
        "MetricSpace.dist_row",
        "MetricSpace.components",
        "is_polarized",
        "build_generating_space",
        "utilities_from_space",
        "random_connected_space",
    ),
    "embedding": ("bourgain_embed", "measure_distortion", "maximize_euclidean_robustness"),
    "planar": ("is_planar", "genus_lower_bound", "search_planar_representation"),
}

#: Functions whose raised exceptions are reported as ``<name>.errors``.
ERROR_COUNTED = ("ordinal.ordinal_from_utility_flagged", "metric.utilities_from_space")


def span_name(module: str, target: str) -> str:
    return f"{module}.{target.replace('__init__', 'init')}"


def traced_names() -> list[str]:
    return [span_name(m, t) for m, targets in TARGETS.items() for t in targets]


@dataclass(frozen=True)
class Span:
    name: str
    parent: int  # index of the parent span, -1 at the top of a job
    start: float
    end: float
    job: str
    error: bool


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, parent, start, end, self.job, error)

        return traced

    def install(self):
        package = importlib.import_module("matchrobust")
        for module_name in TARGETS:
            importlib.import_module(f"matchrobust.{module_name}")
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for module_name, targets in TARGETS.items():
            module = sys.modules[f"matchrobust.{module_name}"]
            for target in targets:
                name = span_name(module_name, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._rebind(cls, attr, original, self._wrap(name, original))
                    continue
                original = getattr(module, target)
                wrapper = self._wrap(name, original)
                for namespace in namespaces:
                    for attr in [a for a, v in vars(namespace).items() if v is original]:
                        self._rebind(namespace, attr, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Completed spans so far; clears the tracer's buffer."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls and self time, per-module self time, error counts."""
    metrics: dict[str, float] = {}
    for name in traced_names():
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    for module in TARGETS:
        metrics[f"{module}.self_s"] = 0.0
    for name in ERROR_COUNTED:
        metrics[f"{name}.errors"] = 0
    for span, own in zip(spans, self_times(spans)):
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += own
        metrics[f"{span.name.split('.')[0]}.self_s"] += own
        if span.error and span.name in ERROR_COUNTED:
            metrics[f"{span.name}.errors"] += 1
    return metrics


def write_spans(spans: list[Span], path) -> None:
    own = self_times(spans)
    with open(path, "w") as fh:
        fh.write("span,parent,job,name,start_s,end_s,self_s,error\n")
        for index, (span, s) in enumerate(zip(spans, own)):
            fh.write(
                f"{index},{span.parent},{span.job},{span.name},{span.start:.9f},"
                f"{span.end:.9f},{s:.9f},{int(span.error)}\n"
            )
