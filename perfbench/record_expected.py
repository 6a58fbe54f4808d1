"""Record the output digests the benchmark checks against.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json`` from one pass of every workload.  A
pass covers each workload's whole input pool, so one pass records every
digest.  Run it only on a commit whose outputs are known to be right:
the benchmark treats any later difference as an error.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, load_amalgam
from perfbench.workloads import WORKLOADS


def main() -> int:
    load_amalgam()
    expected = {}
    for workload in WORKLOADS.values():
        state = workload.setup()
        digests = workload.digests([(item, workload.run(state, item))
                                    for item in workload.inputs(0)])
        if digests:
            expected[workload.name] = dict(sorted(digests.items()))
    path = ROOT / "perfbench" / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
