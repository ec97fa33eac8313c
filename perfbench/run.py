"""Benchmark of the DDM-GNN stack: one workload, one seed, one JSON result.

Run from the root of a checkout (BLAS and OpenMP on one thread)::

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload gnn-solve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, both as BENCHMARK.json declares them.  The last line
of standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--tiny`` shrinks every workload so that it runs in seconds
(the self-tests use it).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _program_importable() -> bool:
    """The program's sources must be in this checkout (never an installed copy)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import repro

    return Path(repro.__file__).resolve().is_relative_to(ROOT / "src")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _program_importable():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import common
    import serving
    import workloads

    print("environment: " + json.dumps(common.environment(), sort_keys=True))
    sizes = workloads.TINY if args.tiny else workloads.FULL
    run = {"gnn-solve": workloads.gnn_solve, "lu-march": workloads.lu_march,
           "lu-serve": serving.lu_serve}[args.workload]
    try:
        outcome = run(args.seed, args.seconds, sizes, bool(args.trace))
    except common.BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not outcome.latencies_ms or outcome.attempted < 1:
        print("error: the timed phase completed no operation", file=sys.stderr)
        return 2

    if args.trace:
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        # a layer the workload does not reach reads 0 with 0 samples
        layers = {name: outcome.layers.get(name, (0.0, 0)) for name in units}
        for name, (value, samples) in layers.items():
            print(f"layer {name:28s} {value:12.6g} {units[name]:9s} samples={samples}")
        values = {name: value for name, (value, _) in layers.items()}
    else:
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        values = {
            "setup_s": common.median(outcome.setup_s),
            "rhs_per_s": outcome.rhs / outcome.elapsed_s,
            "latency_ms_p50": common.median(outcome.latencies_ms),
            "peak_rss_mb": outcome.peak_rss_mb,
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(outcome.latencies_ms),
        "latency_ms_reference": common.reference_percentile(outcome.latencies_ms),
        "setup_samples_s": outcome.setup_s,
        "timed_s": outcome.elapsed_s,
        **outcome.notes,
    }
    print("detail: " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
