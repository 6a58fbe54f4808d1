"""The bound-4 rung of the game ladder: drained tail tops at bound 4 are
equivalent in the back-and-forth game up to depth 4.

Builds ``build_generic_k1`` at bound 4 (trunc 6, tail fragment) for
seeds 0-3 until each ledger drains, then plays ``back_and_forth_check``
with ``k1_position_valid`` on the generators of the tops, each pair both
ways round, and asserts what was measured: all six pairs hold at depth
4, and the pair of seeds 0 and 2 also holds at depth 5.  Tier-1 plays
only the pair of seeds 0 and 2 at depth 4; the rest takes about half a
minute, so it runs as a CI step of its own:

    PYTHONPATH=src python tests/game_ladder.py

It prints one JSON line per game with its value and timing.
"""

import itertools
import json
import time

from amalgam.fraisse import back_and_forth_check
from amalgam.k1.engine import build_generic_k1, k1_position_valid

BOUND, TRUNC, SEEDS, STEPS = 4, 6, range(4), 50_000
DEPTH_5_PAIRS = [(0, 2)]


def elements(S):
    return list(S.p0) + list(S.p2)


def play(tops, i, j, depth):
    """The game value of the tops of seeds i and j at ``depth``, played
    both ways round; the two values must agree."""
    start = time.perf_counter()
    held = back_and_forth_check(tops[i], tops[j], depth, elements,
                                k1_position_valid)
    reverse = back_and_forth_check(tops[j], tops[i], depth, elements,
                                   k1_position_valid)
    print(json.dumps({"seeds": [i, j], "depth": depth, "held": held,
                      "reverse": reverse,
                      "game_s": round(time.perf_counter() - start, 2)}))
    assert held == reverse
    return held


def main():
    start = time.perf_counter()
    tops = {}
    for seed in SEEDS:
        g = build_generic_k1(STEPS, bound=BOUND, trunc=TRUNC, seed=seed)
        assert g.approximation.steps_run < STEPS  # the ledger drained
        tops[seed] = g.top
    print(json.dumps({"build_s": round(time.perf_counter() - start, 2)}))
    for i, j in itertools.combinations(SEEDS, 2):
        assert play(tops, i, j, 4)
    for i, j in DEPTH_5_PAIRS:
        assert play(tops, i, j, 5)


if __name__ == "__main__":
    main()
