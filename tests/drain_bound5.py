"""The seed-0 tail drain at bound 5, and its richness.

Builds ``build_generic_k1`` at bound 5 (trunc 6, tail fragment, seed 0)
until the ledger drains, then runs ``richness_defect`` on the top, and
asserts what was measured: 471,890 steps, a chain of 7 structures, no
pending task, an empty defect list, and the digest of the ledger and the
top recorded for this build.  It takes about half a minute, so it runs
as a CI step of its own rather than in Tier-1:

    PYTHONPATH=src python tests/drain_bound5.py

It prints the timings and the digest, so two trees can also be compared
run against run.
"""

import hashlib
import json
import time

from amalgam.fraisse import richness_defect
from amalgam.k1.engine import build_generic_k1, k1_class

BOUND, TRUNC, SEED, STEPS = 5, 6, 0, 1_000_000
DIGEST = "269fff4b9f4247dc"


def main():
    start = time.perf_counter()
    g = build_generic_k1(STEPS, bound=BOUND, trunc=TRUNC, seed=SEED)
    built = time.perf_counter()
    approx = g.approximation
    defects = richness_defect(g.top, k1_class(TRUNC, 0), BOUND)
    checked = time.perf_counter()
    pending = sum(t.status == "pending" for t in approx.tasks)
    digest = hashlib.sha256(json.dumps(
        [[t.to_dict() for t in approx.tasks], repr(g.top.canonical_key())],
        sort_keys=True).encode()).hexdigest()[:16]
    print(json.dumps({"steps": approx.steps_run, "chain": len(approx.chain),
                      "pending": pending, "defects": len(defects),
                      "digest": digest,
                      "build_s": round(built - start, 2),
                      "defect_s": round(checked - built, 2)}))
    assert approx.steps_run == len(approx.tasks) == 471_890
    assert len(approx.chain) == 7
    assert pending == 0
    assert defects == []
    assert digest == DIGEST


if __name__ == "__main__":
    main()
