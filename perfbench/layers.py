"""Per-layer probes for the traced run, and the design table that ties
each layer metric to the end-to-end metric and workloads it should move.

Each probe wraps public functions of one layer of ``amalgam``.  Its span
name is the metric prefix; the metrics are ``<prefix>.calls``,
``<prefix>.self_s`` and, where the probe names one, a ratio or a result
count taken from the returned values.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .tracer import Tracer


@dataclass(frozen=True)
class Probe:
    """One layer: the functions wrapped under one span name, the value
    taken from their results, the end-to-end metric the layer should
    move on the workloads in ``on``, and the workloads that never call
    it (``calls`` must stay 0 there, and a change to the layer should
    leave every metric of those workloads unchanged)."""

    name: str
    module: str
    attrs: tuple[str, ...]
    value: Optional[str]  # "true_ratio", "hit_ratio", "pass_ratio", "results"
    moves: str
    on: tuple[str, ...]
    unchanged_on: tuple[str, ...]
    extra: tuple[tuple[str, str], ...] = ()  # further (metric, unit) pairs


VALUES: dict[str, Callable[[Any], float]] = {
    "true_ratio": bool,
    "hit_ratio": bool,  # a non-empty list or a returned member
    "pass_ratio": lambda report: bool(report.passed),
    "results": len,
}

K1 = ("k1_head", "k1_corpus")
STRUCTURES = ("order_game", "kdim_survey")
CHECKS_MOVE = "run_s on k1_corpus; setup_s on k1_head"

PROBES = (
    Probe("fraisse.build_generic", "amalgam.fraisse", ("build_generic",),
          None, "run_s", ("k1_head",), ("k1_corpus", "kdim_survey"),
          extra=(("fraisse.discover.enumerated", "count"),
                 ("fraisse.discover.kept_ratio", "ratio"),
                 ("fraisse.tasks_discovered", "count"),
                 ("fraisse.tasks_realized", "count"),
                 ("fraisse.tasks_amalgamated", "count"),
                 ("fraisse.chain_length", "count"))),
    Probe("k1.embeddings.is_valid_match", "amalgam.k1.embeddings",
          ("is_valid_match",), "true_ratio", "run_s", ("k1_head",),
          STRUCTURES),
    Probe("k1.embeddings.enumerate_matches", "amalgam.k1.embeddings",
          ("enumerate_matches",), "results", "run_s", ("k1_head",),
          STRUCTURES),
    Probe("k1.embeddings.extend_match", "amalgam.k1.embeddings",
          ("extend_match",), "hit_ratio", "run_s", ("k1_head",),
          ("k1_corpus",) + STRUCTURES),
    Probe("k1.embeddings.is_isomorphic_k1", "amalgam.k1.embeddings",
          ("is_isomorphic_k1",), "true_ratio", "run_s", ("k1_corpus",),
          STRUCTURES),
    Probe("k1.structure.enumerate_members", "amalgam.k1.structure",
          ("enumerate_members",), None, "run_s", ("k1_corpus",), STRUCTURES),
    Probe("k1.ops.amalgamate_free", "amalgam.k1.ops", ("amalgamate_free",),
          None, "run_s", ("k1_head",), ("k1_corpus",) + STRUCTURES),
    Probe("k1.checks.check_K1", "amalgam.k1.checks", ("check_K1",),
          "pass_ratio", CHECKS_MOVE, K1, STRUCTURES),
    Probe("k1.checks.check_Kminus1", "amalgam.k1.checks", ("check_Kminus1",),
          None, CHECKS_MOVE, K1, STRUCTURES),
    Probe("k1.p1.spans_generator", "amalgam.k1.p1", ("spans_generator",),
          None, CHECKS_MOVE, K1, STRUCTURES),
    Probe("k1.p1.subalgebra_contains", "amalgam.k1.p1",
          ("subalgebra_contains",), None, CHECKS_MOVE, K1, STRUCTURES),
    Probe("k1.p1.point_blocks", "amalgam.k1.p1", ("point_blocks",),
          None, CHECKS_MOVE, K1, STRUCTURES),
    Probe("k1.p1.independent_from_mod_atomic", "amalgam.k1.p1",
          ("independent_from_mod_atomic",), None, CHECKS_MOVE, K1,
          STRUCTURES),
    Probe("k1.freepart.ops", "amalgam.k1.freepart",
          ("conj", "disj", "neg", "rename", "conj_many"), None, CHECKS_MOVE,
          K1, STRUCTURES),
    Probe("fraisse.back_and_forth_check", "amalgam.fraisse",
          ("back_and_forth_check",), None, "run_s, peak_rss_mb",
          ("order_game",), K1 + ("kdim_survey",),
          extra=(("fraisse.back_and_forth_check.positions", "count"),
                 ("fraisse.back_and_forth_check.valid_ratio", "ratio"))),
    Probe("backends.structure_position_valid", "amalgam.backends",
          ("structure_position_valid",), "true_ratio", "run_s, peak_rss_mb",
          ("order_game",), K1 + ("kdim_survey",)),
    Probe("structures.generate_substructure", "amalgam.structures",
          ("generate_substructure",), None, "run_s", STRUCTURES, K1),
    Probe("structures.FiniteStructure.restrict", "amalgam.structures",
          ("FiniteStructure.restrict",), None, "run_s", STRUCTURES, K1),
    Probe("structures.Embedding.is_valid", "amalgam.structures",
          ("Embedding.is_valid",), None, "run_s", ("order_game",),
          K1 + ("kdim_survey",)),
    Probe("structures.enumerate_embeddings", "amalgam.structures",
          ("enumerate_embeddings",), "results", "run_s", ("order_game",),
          K1 + ("kdim_survey",)),
    Probe("kdim.frugal_amalgamate", "amalgam.kdim", ("frugal_amalgamate",),
          None, "run_s", ("kdim_survey",), K1 + ("order_game",)),
    Probe("kdim.closure", "amalgam.kdim", ("closure",), None, "run_s",
          ("kdim_survey",), K1 + ("order_game",)),
    Probe("kdim.max_independent_size", "amalgam.kdim",
          ("max_independent_size",), None, "run_s", ("kdim_survey",),
          K1 + ("order_game",)),
    Probe("kdim.check_membership", "amalgam.kdim", ("check_membership",),
          "pass_ratio", "run_s", ("kdim_survey",), K1 + ("order_game",)),
    Probe("kdim.random_member", "amalgam.kdim", ("random_member",),
          "hit_ratio", "run_s", ("kdim_survey",), K1 + ("order_game",)),
)

TRACE_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def probe_metrics(probe: Probe) -> list[tuple[str, str]]:
    out = [(f"{probe.name}.calls", "count"), (f"{probe.name}.self_s", "s")]
    if probe.value == "results":
        out.append((f"{probe.name}.results", "count"))
    elif probe.value is not None:
        out.append((f"{probe.name}.{probe.value}", "ratio"))
    return out + list(probe.extra)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for probe in PROBES:
        units.update(probe_metrics(probe))
    units.update(TRACE_METRICS)
    return units


def matrix_violations(workload: str, metrics: dict[str, float]) -> list[str]:
    """Where a traced pass contradicts the design table: a layer that
    should move ``workload`` was never called, or a layer that should
    leave it unchanged was called."""
    out = []
    for probe in PROBES:
        calls = metrics[f"{probe.name}.calls"]
        if workload in probe.on and calls == 0:
            out.append(f"{probe.name} not called on {workload}")
        if workload in probe.unchanged_on and calls != 0:
            out.append(f"{probe.name} called {calls:g} times on {workload}")
    return out


def _traced_build_generic(tracer: Tracer, original: Callable) -> Callable:
    """``build_generic`` with a span, a counting ``embeddings`` hook (its
    only caller inside the builder is task discovery) and task counters
    read from the returned approximation."""
    traced = tracer.wrap("fraisse.build_generic", original)

    def build_generic(cls, *args, **kwargs):
        hook = cls.embeddings
        cls.embeddings = tracer.wrap("fraisse.discover.embeddings", hook, len)
        try:
            approx = traced(cls, *args, **kwargs)
        finally:
            cls.embeddings = hook
        counters = tracer.counters
        counters["fraisse.tasks_discovered"] += len(approx.tasks)
        for task in approx.tasks:
            if task.status != "pending":
                counters[f"fraisse.tasks_{task.status}"] += 1
        counters["fraisse.chain_length"] += len(approx.chain)
        return approx

    return build_generic


def wrappers(tracer: Tracer) -> dict[tuple[Any, str], Callable]:
    """The replacement for every probed function, keyed as ``Patches``
    expects."""
    out: dict[tuple[Any, str], Callable] = {}
    for probe in PROBES:
        module = importlib.import_module(probe.module)
        for attr in probe.attrs:
            if probe.name == "fraisse.build_generic":
                make = functools.partial(_traced_build_generic, tracer)
            else:
                make = functools.partial(tracer.wrap, probe.name,
                                         value=VALUES.get(probe.value))
            out[(module, attr)] = make
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    rows = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "value_sum": 0.0, "value_count": 0}
    out: dict[str, float] = {}
    for probe in PROBES:
        row = rows.get(probe.name, empty)
        out[f"{probe.name}.calls"] = row["calls"]
        out[f"{probe.name}.self_s"] = row["self_s"]
        if probe.value == "results":
            out[f"{probe.name}.results"] = row["value_sum"]
        elif probe.value is not None:
            out[f"{probe.name}.{probe.value}"] = _ratio(row["value_sum"],
                                                        row["value_count"])
    enumerated = rows.get("fraisse.discover.embeddings", empty)["value_sum"]
    discovered = tracer.counters["fraisse.tasks_discovered"]
    out["fraisse.discover.enumerated"] = enumerated
    out["fraisse.discover.kept_ratio"] = _ratio(discovered, enumerated)
    for name in ("fraisse.tasks_discovered", "fraisse.tasks_realized",
                 "fraisse.tasks_amalgamated", "fraisse.chain_length"):
        out[name] = tracer.counters[name]
    # The position check is passed in as an argument, so its spans are
    # the direct children of the game's span.
    positions, valid = tracer.children_of("fraisse.back_and_forth_check")
    out["fraisse.back_and_forth_check.positions"] = positions
    out["fraisse.back_and_forth_check.valid_ratio"] = _ratio(valid, positions)
    out["trace.spans"] = len(tracer)
    return out
