"""Tests of the benchmark's own machinery: tracer arithmetic, patch
hygiene, seeded inputs and agreement with ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re
import sys

import pytest

from perfbench import layers, run
from perfbench.tracer import PACKAGE, Patches, Tracer
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def amalgam():
    run.load_amalgam()
    import amalgam.backends
    import amalgam.k1.engine
    import amalgam.kdim

    return amalgam


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds inner [1, 3], which holds leaf [1.5, 2.5], and
    # a second inner [4, 5]
    ticks = iter([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda f: f(), value=bool)

    def body():
        inner(leaf)
        inner(lambda: None)

    tracer.wrap("outer", body)()
    rows = tracer.summary()
    assert rows["outer"]["self_s"] == pytest.approx(10 - 2 - 1)
    assert rows["inner"]["self_s"] == pytest.approx(1 + 1)
    assert rows["inner"]["calls"] == 2
    assert rows["leaf"]["self_s"] == pytest.approx(1)
    assert tracer.children_of("outer") == (2, 0.0)
    assert tracer.children_of("inner") == (1, 0.0)


def _bindings_snapshot():
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for attr, obj in vars(module).items():
                snapshot[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for member, value in vars(obj).items():
                        snapshot[(name, f"{attr}.{member}")] = value
    return snapshot


def test_patches_cover_every_binding_and_restore_them(amalgam):
    before = _bindings_snapshot()
    originals = {id(before[(p.module, attr)])
                 for p in layers.PROBES for attr in p.attrs}
    tracer = Tracer()
    with Patches(layers.wrappers(tracer)):
        during = _bindings_snapshot()
        assert not [key for key, obj in during.items()
                    if id(obj) in originals], "a binding was left unwrapped"
        amalgam.k1.engine.corpus(2)
        M = amalgam.backends.chain_structure(3)
        amalgam.backends.structure_position_valid(M, M, (0, 1), (0, 1))
    after = _bindings_snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    rows = tracer.summary()
    for name in ("k1.checks.check_K1", "k1.embeddings.is_isomorphic_k1",
                 "k1.freepart.ops", "structures.generate_substructure",
                 "structures.FiniteStructure.restrict",
                 "structures.Embedding.is_valid"):
        assert rows[name]["calls"] > 0, name
    # the position check's substructures are its children
    assert tracer.children_of("backends.structure_position_valid")[0] == 3


def test_inputs_identical_for_equal_seeds(amalgam):
    for workload in WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7)
    pooled = WORKLOADS["k1_head"]
    assert sorted(pooled.inputs(7)) == sorted(pooled.inputs(8))
    assert pooled.inputs(7) != pooled.inputs(8)
    game = WORKLOADS["order_game"]
    state = game.setup()
    keys = [[M.canonical_key() for M in game.generics(state, 7)]
            for _ in range(2)]
    assert keys[0] == keys[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.metric_units()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_design_table_lists_every_workload():
    for probe in layers.PROBES:
        assert probe.on and not set(probe.on) & set(probe.unchanged_on)
        assert set(probe.on) | set(probe.unchanged_on) <= set(WORKLOADS)


def test_missing_source_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.ProvenanceError):
        run.load_amalgam()
