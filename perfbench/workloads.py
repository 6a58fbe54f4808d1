"""The benchmark's four workloads.

Each workload has three parts:
- ``setup()`` imports what the workload needs from ``amalgam`` and builds
  the state a user builds once and reuses; ``setup_s`` times it;
- ``inputs(seed)`` lists the inputs of one pass, and ``run(state, item)``
  runs one of them; the harness times each call;
- ``digests(outputs)`` and ``check(state, outputs, expected)`` verify a
  pass, given as ``(item, output)`` pairs, outside the timed region,
  against values recorded from the seed commit in ``expected.json``.

Nothing here imports ``amalgam`` at module level, so that set-up timing
starts from a clean import.

Generic builds and surveys spend very different times on different
seeds (a 150-step head-fragment build took 3.7 s to 6.7 s over seeds
0-5, and a size-4 survey of 60 configurations 2 s to 17 s), so run-to-run
spread would hide any change.  A pass therefore covers a fixed pool of
build or survey seeds, in an order drawn from ``--seed``: every pass
does the same work, and every output has a recorded digest.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from types import SimpleNamespace
from typing import Any


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _held(report) -> bool:
    """Every clause of a check report was evaluated and held."""
    return all(item.passed is True for item in report.items)


def _modules(*names: str) -> SimpleNamespace:
    return SimpleNamespace(**{name.rsplit(".", 1)[-1]:
                              importlib.import_module(name)
                              for name in names})


def _seeded_order(pool: range, seed: int) -> list[int]:
    return random.Random(seed).sample(list(pool), len(pool))


class K1Head:
    name = "k1_head"
    why = ("head-fragment generic builds: discovery re-enumerates matches "
           "into ever larger tops, so is_valid_match dominates; the only "
           "workload that runs amalgamate_free")
    STEPS, BOUND, TRUNC, MAX_N_STAR = 25, 3, 6, 1
    POOL = range(4)  # build seeds

    def setup(self):
        m = _modules("amalgam.k1.engine", "amalgam.k1.checks",
                     "amalgam.k1.structure")
        # The class state a user builds once: members and task pairs at
        # the bound.  build_generic_k1 takes no prebuilt class, so each
        # build pays for this again inside run_s.
        m.engine.k1_class(self.TRUNC, self.MAX_N_STAR).task_pairs(self.BOUND)
        return m

    def inputs(self, seed: int) -> list[int]:
        return _seeded_order(self.POOL, seed)

    def run(self, state, build_seed: int):
        return state.engine.build_generic_k1(
            self.STEPS, bound=self.BOUND, trunc=self.TRUNC, seed=build_seed,
            max_n_star=self.MAX_N_STAR)

    def digests(self, outputs) -> dict:
        return {str(s): _digest(
                    repr(g.top.canonical_key()),
                    json.dumps([t.to_dict() for t in g.approximation.tasks],
                               sort_keys=True))
                for s, g in outputs}

    def check(self, state, outputs, expected) -> list[str]:
        failures = [f"build seed {s}: digest differs"
                    for s, d in self.digests(outputs).items()
                    if expected.get(s) != d]
        base = state.structure.minimal_model(self.TRUNC)
        for s, g in outputs:
            if not _held(state.checks.check_free_extension(base, g.top,
                                                           g.free_witness)):
                failures.append(f"build seed {s}: free extension check")
            if not _held(state.engine.nonoise_check(g.top)):
                failures.append(f"build seed {s}: nonoise check")
        return failures


class K1Corpus:
    name = "k1_corpus"
    why = ("witnessed-class corpus: check_K1 membership checks and "
           "is_isomorphic_k1 deduplication, the main load on k1.checks, "
           "k1.p1 and k1.freepart; the input does not depend on the seed")
    SIZE_BOUND, TRUNC, MAX_N_STAR = 5, 6, 1

    def setup(self):
        return _modules("amalgam.k1.engine")

    def inputs(self, seed: int) -> list[int]:
        return [self.SIZE_BOUND]

    def run(self, state, size_bound: int) -> list:
        return state.engine.corpus(size_bound, self.TRUNC, self.MAX_N_STAR)

    def digests(self, outputs) -> dict:
        [(_, members)] = outputs
        return {"members": len(members),
                "keys": _digest(*(repr(M.canonical_key()) for M in members))}

    def check(self, state, outputs, expected) -> list[str]:
        got = self.digests(outputs)
        return [f"{key}: {got[key]} != {expected.get(key)}"
                for key in got if got[key] != expected.get(key)]


def _universe(M):
    return M.universe


class OrderGame:
    name = "order_game"
    why = ("back-and-forth game at depth 3 between two linear-order "
           "generics: position checks rebuild generated substructures, "
           "so structures.restrict dominates; no k1 code runs")
    STEPS, BOUND, DEPTH = 60, 3, 3
    # Both generics are cut to their SIZE lowest points.  Linear orders of
    # one size are isomorphic and the universes come in order, so the
    # game does the same work for every seed.
    SIZE = 8

    def setup(self):
        return _modules("amalgam.fraisse", "amalgam.backends")

    def inputs(self, seed: int) -> list[int]:
        return [seed]

    def generics(self, state, seed: int) -> list:
        """The two generics at seeds ``seed`` and ``seed + 1``, cut."""
        cls = state.backends.linear_order_class()
        out = []
        for s in (seed, seed + 1):
            top = state.fraisse.build_generic(cls, self.STEPS, self.BOUND,
                                              seed=s).top
            if top.size < self.SIZE:
                raise ValueError(f"generic has {top.size} < {self.SIZE} points")
            out.append(top.restrict(top.universe[:self.SIZE]))
        return out

    def run(self, state, seed: int) -> dict:
        a, b = self.generics(state, seed)
        return {name: state.fraisse.back_and_forth_check(
                    a, other, self.DEPTH, _universe,
                    state.backends.structure_position_valid)
                for name, other in (("a_vs_a", a), ("a_vs_b", b))}

    def digests(self, outputs) -> dict:
        return {}

    def check(self, state, outputs, expected) -> list[str]:
        failures = [f"seed {seed}: {name} does not hold"
                    for seed, games in outputs
                    for name, held in games.items() if held is not True]
        # Orders of SIZE and of 6 points differ at depth 3 (6 < 2**3 - 1).
        small = state.backends.chain_structure(6)
        big = state.backends.chain_structure(self.SIZE)
        if state.fraisse.back_and_forth_check(
                big, small, self.DEPTH, _universe,
                state.backends.structure_position_valid) is not False:
            failures.append(f"{self.SIZE} vs 6 points holds at depth 3")
        return failures


class KdimSurvey:
    name = "kdim_survey"
    why = ("k-disjoint amalgamation survey: sampling plus frugal "
           "completion search, both dominated by kdim.closure on small "
           "flattened structures")
    R, K, SIZE_BOUND, BUDGET, CLASS_CAP = 1, 3, 3, 60, 2
    POOL = range(4)  # survey seeds

    def setup(self):
        return _modules("amalgam.kdim")

    def inputs(self, seed: int) -> list[int]:
        return _seeded_order(self.POOL, seed)

    def run(self, state, survey_seed: int) -> tuple[Any, list]:
        """The survey table and every (configuration, solution) pair."""
        kdim = state.kdim
        solutions: list = []

        def solver(config, class_cap):
            solution = kdim.frugal_amalgamate(config, class_cap)
            solutions.append((config, solution))
            return solution

        table = kdim.survey_k_disjoint_ap(
            r=self.R, k=self.K, size_bound=self.SIZE_BOUND,
            budget=self.BUDGET, seed=survey_seed, class_cap=self.CLASS_CAP,
            solver=solver)
        return table, solutions

    def digests(self, outputs) -> dict:
        return {str(s): _digest(table.to_csv()) for s, (table, _) in outputs}

    def check(self, state, outputs, expected) -> list[str]:
        failures = [f"survey seed {s}: csv digest differs"
                    for s, d in self.digests(outputs).items()
                    if expected.get(s) != d]
        for s, (_, solutions) in outputs:
            for config, solution in solutions:
                if not _held(state.kdim.check_membership(solution)):
                    failures.append(f"survey seed {s}: solution not a member")
                if any(solution.restriction(p.universe) != p
                       for p in config.parts):
                    failures.append(f"survey seed {s}: solution does not "
                                    "restrict to its parts")
        return failures


WORKLOADS = {w.name: w for w in (K1Head(), K1Corpus(), OrderGame(),
                                 KdimSurvey())}
