"""Make the benchmark's fixed DSS checkpoint anew.

Trains a DSS with the ``benchmarks/specs/perf_smoke.json`` recipe through the
experiment harness (about two minutes on one CPU) and saves its weights alone
with ``save_checkpoint(path, model)``::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/make_checkpoint.py

It prints the config hash and the weights digest.  A new checkpoint changes
the model every GNN workload runs, so a comparison across commits must use
the same file; after remaking it, update ``CHECKPOINT_CONFIG_HASH`` and
``CHECKPOINT_WEIGHTS_SHA256`` in ``perfbench/common.py``, which the
benchmark checks on every load.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from repro.experiments import ExperimentHarness, ExperimentSpec  # noqa: E402
from repro.gnn.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402

from common import CHECKPOINT_PATH, weights_digest  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default=str(ROOT / "benchmarks" / "specs" / "perf_smoke.json"))
    parser.add_argument("--output", default=str(CHECKPOINT_PATH))
    args = parser.parse_args(argv)

    spec = ExperimentSpec.from_json(args.spec)
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as artifacts:
        result = ExperimentHarness(spec, artifacts_root=Path(artifacts)).run(skip_bench=True)
        model = load_checkpoint(result.checkpoint_path).build_model()
    config_hash = save_checkpoint(args.output, model)
    print(f"wrote {args.output}: {model.num_parameters()} weights")
    print(f"CHECKPOINT_CONFIG_HASH = {config_hash!r}")
    print(f"CHECKPOINT_WEIGHTS_SHA256 = {weights_digest(model.state_dict())!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
