"""Shared pieces of the benchmark: the fixed model, statistics, memory, the
environment block and the layer timer of the traced run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT_PATH = BENCH_DIR / "dss_perf_smoke.npz"
#: identity of the committed checkpoint; ``make_checkpoint.py`` prints both
CHECKPOINT_CONFIG_HASH = "d807bedb3cf7840f84abff97de615bd56c9085a8b022e4464b6efd4f9ad50fcc"
CHECKPOINT_WEIGHTS_SHA256 = "f4effdb36af4baf96e5a85dbf38b0e1fe9008b076630a5fd594fb832814b686c"
CHECKPOINT_WEIGHTS = 25020


class BenchmarkError(RuntimeError):
    """The benchmark cannot run: missing program, foreign model, bad input."""


# --------------------------------------------------------------------------- #
# the fixed model
# --------------------------------------------------------------------------- #
def weights_digest(state) -> str:
    """SHA-256 over every weight array, in sorted name order."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name], dtype=np.float64)
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def load_fixed_model(path: Path = CHECKPOINT_PATH):
    """Load the committed DSS checkpoint, refusing any other model.

    The config hash stored in the header must match both the pinned value and
    the hash recomputed from the stored config, and the weights must hash to
    the pinned digest: both commits of a comparison run the same model bytes.
    """
    from repro.gnn.checkpoint import config_hash, load_checkpoint

    checkpoint = load_checkpoint(path)
    if checkpoint.config_hash != CHECKPOINT_CONFIG_HASH:
        raise BenchmarkError(
            f"checkpoint {path.name} has config hash {checkpoint.config_hash}, "
            f"expected {CHECKPOINT_CONFIG_HASH}")
    if config_hash(checkpoint.config) != checkpoint.config_hash:
        raise BenchmarkError(f"checkpoint {path.name}: stored config does not match its hash")
    digest = weights_digest(checkpoint.model_state)
    if digest != CHECKPOINT_WEIGHTS_SHA256:
        raise BenchmarkError(
            f"checkpoint {path.name} has weights digest {digest}, "
            f"expected {CHECKPOINT_WEIGHTS_SHA256}")
    model = checkpoint.build_model()
    if model.num_parameters() != CHECKPOINT_WEIGHTS:
        raise BenchmarkError(f"checkpoint {path.name} holds {model.num_parameters()} weights")
    return model


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
#: percentiles considered for the reference tail figure, highest first
_REFERENCE_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def reference_percentile(samples: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than forty samples there is no such tail and None is returned.

    >>> reference_percentile(list(range(39))) is None
    True
    >>> reference_percentile(list(range(100)))["percentile"]
    90.0
    """
    n = len(samples)
    if n < 40:
        return None
    for q in _REFERENCE_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 6) >= 10.0:
            return {"percentile": q, "value": float(np.percentile(samples, q))}
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# --------------------------------------------------------------------------- #
# memory and environment
# --------------------------------------------------------------------------- #
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM in {status}")


def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, when it exports the query."""
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" not in path.lower() or ".so" not in path:
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment() -> Dict[str, object]:
    """numpy/scipy versions, BLAS build and threads, CPU model and count."""
    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {key: os.environ.get(key) for key in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


# --------------------------------------------------------------------------- #
# the timed phase
# --------------------------------------------------------------------------- #
def run_rounds(seconds: float, round_fn: Callable[[int], None]) -> tuple:
    """Call ``round_fn(index)`` until ``seconds`` have passed; whole rounds only.

    Returns ``(rounds, elapsed_s)``.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        round_fn(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return rounds, elapsed


# --------------------------------------------------------------------------- #
# the layer timer of the traced run
# --------------------------------------------------------------------------- #
class LayerTimer:
    """Times calls into the program's public functions from outside.

    ``wrap(owner, name, layer)`` replaces ``owner.name`` (an instance or a
    module attribute) by a timing wrapper that adds each call's wall time
    to ``seconds[layer]`` and one to ``units[layer]``.  ``restore()`` puts every original back, so untraced
    rounds run the program exactly as the untraced benchmark does.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.units: Dict[str, int] = defaultdict(int)
        self._undo: List[tuple] = []

    def wrap(self, owner, name: str, layer: str) -> None:
        original = getattr(owner, name)
        seconds, counts = self.seconds, self.units

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - start
                counts[layer] += 1

        own = name in vars(owner)
        self._undo.append((owner, name, own, original))
        setattr(owner, name, timed)

    def restore(self) -> None:
        while self._undo:
            owner, name, own, original = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def snapshot(self) -> Dict[str, float]:
        """Seconds per layer so far (subtract two snapshots to time a call)."""
        return dict(self.seconds)
