"""Benchmark for the ``amalgam`` engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the root of a checkout.  ``amalgam`` is imported from the
checkout's ``src/`` and nowhere else.  The workload runs in passes until
the next pass would overrun ``--seconds``; every pass is checked outside
the timed region.  The last line of output is one JSON object with
``correct``, ``attempted`` (passes), ``failed`` (passes that raised or
failed their check) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  The line before it reports unscaled times, pass-time
quartiles, the error ratio, failures and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.tracer import Patches, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
# Times are scaled to a reference machine speed, read from a gauge loop.
# On the shared two-core machine where the benchmark was written,
# identical work ran up to half slower for seconds at a time; scaled
# times vary far less from run to run than raw ones.  GAUGE_REF_S is the
# gauge there when unloaded, so scaled times are seconds on that machine.
GAUGE_LOOP = 100_000
GAUGE_REF_S = 0.0065
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProvenanceError(Exception):
    pass


def load_amalgam() -> None:
    """Import ``amalgam`` from this checkout's ``src/``."""
    package = SRC / "amalgam"
    if not package.is_dir():
        raise ProvenanceError(f"no package at {package}")
    sys.path.insert(0, str(SRC))
    import amalgam

    paths = {Path(p).resolve() for p in amalgam.__path__}
    if paths != {package.resolve()}:
        raise ProvenanceError(f"amalgam resolves to {paths}, not {package}")


def check_loaded_modules() -> None:
    """Every loaded ``amalgam`` module comes from this checkout."""
    package = (SRC / "amalgam").resolve()
    for name, module in list(sys.modules.items()):
        if name.startswith("amalgam."):
            path = Path(module.__file__).resolve()
            if package not in path.parents:
                raise ProvenanceError(f"{name} loaded from {path}")


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git
    (a checkout without ``.git`` reports none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "amalgam").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_seconds(name: str) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter, so the import is
    timed from scratch: scaled by the mean gauge reading around it, and
    as measured."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    corrected, raw = done.stdout.split()[-2:]
    return float(corrected), float(raw)


def gauge_seconds() -> float:
    """Fastest of three runs of a fixed integer loop: how fast the
    machine runs Python at this moment.  The loop allocates nothing the
    garbage collector tracks, so the program's heap does not slow it."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(GAUGE_LOOP):
            x += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_passes(workload, state, seed: int, seconds: float, expected: dict,
               traced: bool) -> dict:
    """Run timed passes until the next one would overrun ``seconds``.

    Each input of a pass is timed on its own, and the gauge is read after
    each.  ``run_s`` is the sum over inputs of each input's fastest time
    across passes, scaled to the reference speed by the fastest gauge
    reading of the run; ``run_s_uncorrected`` is the unscaled sum.
    """
    items = workload.inputs(seed)
    times: list[list[float]] = [[] for _ in items]
    gauges = [gauge_seconds()]
    totals: list[float] = []
    failures: list[str] = []
    per_pass_layers: list[dict] = []
    failed = 0
    began = time.perf_counter()
    while True:
        tracer = Tracer()
        outputs, problems, total = [], [], 0.0
        with Patches(layers.wrappers(tracer) if traced else {}):
            for i, item in enumerate(items):
                start = time.perf_counter()
                try:
                    output = workload.run(state, item)
                except Exception as exc:  # a failed pass is counted
                    problems = [f"input {item!r} raised {exc!r}"]
                    break
                times[i].append(time.perf_counter() - start)
                total += times[i][-1]
                gauges.append(gauge_seconds())
                outputs.append((item, output))
        totals.append(total)
        if not problems:
            try:
                problems = workload.check(state, outputs, expected)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if problems:
            failed += 1
            failures.extend(problems[:5])
        if traced:
            per_pass_layers.append(layers.layer_metrics(tracer))
        if time.perf_counter() - began + totals[-1] > seconds:
            break
    fastest = sum(min(t) for t in times if t)
    return {"run_s": fastest * GAUGE_REF_S / min(gauges),
            "run_s_uncorrected": fastest,
            "totals": totals, "failed": failed, "failures": failures,
            "layers": per_pass_layers, "last_tracer": tracer}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def measure(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    expected = json.loads(
        (ROOT / "perfbench" / "expected.json").read_text()
    ).get(workload.name, {})
    state = workload.setup()  # untimed first set-up also compiles bytecode
    check_loaded_modules()
    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        plain = run_passes(workload, state, args.seed, args.seconds / 2,
                           expected, traced=False)
        traced = run_passes(workload, state, args.seed, args.seconds / 2,
                            expected, traced=True)
        runs = [plain, traced]
        values = {name: statistics.median(p[name] for p in traced["layers"])
                  for name in traced["layers"][0]}
        values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        units = layers.metric_units()
        violations = layers.matrix_violations(workload.name, values)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.json.gz"
        traced["last_tracer"].dump(spans, {"workload": workload.name,
                                           "seed": args.seed})
        report.update({"untraced_run_s": plain["run_s"],
                       "traced_run_s": traced["run_s"],
                       "matrix_violations": violations,
                       "spans": str(spans.relative_to(ROOT))})
    else:
        setup = [setup_seconds(workload.name) for _ in range(SETUP_PROBES)]
        plain = run_passes(workload, state, args.seed, args.seconds,
                           expected, traced=False)
        runs = [plain]
        values = {
            "run_s": plain["run_s"],
            "setup_s": statistics.median(scaled for scaled, _ in setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        violations = []
        report.update({
            "run_s_uncorrected": plain["run_s_uncorrected"],
            "setup_s_uncorrected": statistics.median(raw for _, raw in setup),
            "setup_s_samples": setup,
            "pass_s_quartiles": quartiles(plain["totals"]),
        })
    attempted = sum(len(r["totals"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    report.update({
        "passes": attempted,
        "error_ratio": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]][:20],
        "provenance": provenance(),
    })
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0 and not violations,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter; its parsed last line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=seconds * 3 + 300)
    if done.returncode != 0:
        raise RuntimeError(f"{name} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    ok = True
    for name in WORKLOADS:
        result = run_one(name, args.seed, args.seconds, args.trace)
        ok = ok and result["correct"]
        row = {"workload": name, "correct": result["correct"],
               "error_ratio": {"value": result["failed"] / result["attempted"],
                               "unit": "ratio"},
               **result["metrics"]}
        print(json.dumps(row), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # print one set-up time
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.probe:
            gauge = gauge_seconds()
            start = time.perf_counter()
            load_amalgam()
            WORKLOADS[args.workload].setup()
            elapsed = time.perf_counter() - start
            gauge = (gauge + gauge_seconds()) / 2
            print(elapsed * GAUGE_REF_S / gauge, elapsed)
            return 0
        load_amalgam()
        report, result = measure(args)
    except ProvenanceError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
