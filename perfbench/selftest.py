"""Self-tests of the benchmark: every workload runs at tiny size, and every
output check rejects a perturbed answer.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` on purpose: the repository's own test run
does not collect it, since the tiny workloads start a server and take about a
minute together.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import common  # noqa: E402
from repro.mesh import structured_rectangle_mesh  # noqa: E402
from repro.problems import make_problem  # noqa: E402
from repro.solvers import SolverConfig, prepare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run(*args, cwd=ROOT, timeout=240):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=dict(os.environ, **THREADS), capture_output=True, text=True,
                          timeout=timeout)


def _perturb_one_entry(x: np.ndarray, relative: float = 1e-3) -> np.ndarray:
    y = x.copy()
    i = int(np.argmax(np.abs(y)))
    y[i] += relative * abs(y[i])
    return y


# --------------------------------------------------------------------------- #
# every workload, tiny, both modes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_prints_its_metrics(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "gnn-solve", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# --------------------------------------------------------------------------- #
# each check rejects a perturbed answer
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def poisson():
    mesh = structured_rectangle_mesh(12, 12)
    return make_problem("poisson", mesh=mesh, rng=np.random.default_rng(0))


def test_residual_check_rejects_one_changed_entry(poisson):
    session = prepare(poisson, SolverConfig(preconditioner="ddm-lu", subdomain_size=40,
                                            tolerance=1e-6))
    x = session.solve(poisson.rhs).solution
    assert checks.residual_ok(poisson.matrix, poisson.rhs, x, 1e-6)
    assert not checks.residual_ok(poisson.matrix, poisson.rhs, _perturb_one_entry(x), 1e-6)
    assert not checks.residual_ok(poisson.matrix, poisson.rhs, x[:-1], 1e-6)
    y = x.copy()
    y[0] = np.nan
    assert not checks.residual_ok(poisson.matrix, poisson.rhs, y, 1e-6)


def test_bitwise_check_rejects_one_ulp(poisson):
    x = spla.spsolve(poisson.matrix.tocsc(), poisson.rhs)
    assert checks.bitwise_equal(x, x.copy())
    y = x.copy()
    y[3] = np.nextafter(y[3], np.inf)
    assert not checks.bitwise_equal(x, y)
    assert not checks.bitwise_equal(x, x.astype(np.float32))


def test_march_check_rejects_one_changed_entry():
    heat = make_problem("heat", mesh=structured_rectangle_mesh(14, 14),
                        rng=np.random.default_rng(1), dt=0.01, theta=1.0)
    session = prepare(heat, SolverConfig(preconditioner="ddm-lu", subdomain_size=50,
                                         tolerance=1e-6))
    steps = 5
    u = session.march(steps=steps).solution
    reference = checks.ThetaReference(heat.matrix, heat.explicit_operator, heat.step_load,
                                      heat.dirichlet_nodes, heat.boundary_values)
    expected = reference.march(heat.initial_state, steps)
    assert checks.march_ok(u, expected, steps, 1e-6)
    assert not checks.march_ok(_perturb_one_entry(u, 1e-2), expected, steps, 1e-6)
    # one step short is a different state
    assert not checks.march_ok(reference.march(heat.initial_state, steps - 1), expected,
                               steps, 1e-6)


def test_checkpoint_is_pinned(tmp_path):
    from repro.gnn.checkpoint import save_checkpoint

    model = common.load_fixed_model()
    state = model.state_dict()
    name = sorted(state)[0]
    state[name] = state[name].copy()
    state[name].flat[0] += 1e-12
    model.load_state_dict(state)
    changed = tmp_path / "changed.npz"
    save_checkpoint(changed, model)
    with pytest.raises(common.BenchmarkError, match="weights digest"):
        common.load_fixed_model(changed)


def test_reference_percentile_needs_ten_samples_beyond():
    assert common.reference_percentile([1.0] * 39) is None
    assert common.reference_percentile(list(range(100)))["percentile"] == 90.0
    assert common.reference_percentile(list(range(1000)))["percentile"] == 99.0
