"""The lu-serve workload: binary-frame requests to ``python -m repro.serve``.

The benchmark starts the default server (two forked workers, DDM-LU), warms
one session per operator, then drives it from one closed-loop client, which
sends its next request when the last one returns, for the requested seconds.
One client rather than two: with one of the two CPUs kept busy, a second
client doubled the latency's slowdown (+32% against +11%), so two clients
measure contention for the CPUs more than the serving layers.  It stops the server with SIGINT and checks that no
worker outlives it.  Every answer is compared bitwise with an in-process
``session.solve`` of the same operator and right-hand side, and its true
residual is recomputed with scipy.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.problems import build_problem_from_spec

import checks
from common import BenchmarkError, median, peak_rss_mb
from workloads import TOLERANCE, Layers, Outcome, Sizes, _config, _timed_setup

ROOT = Path(__file__).resolve().parent.parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``python -m repro.serve`` process and its forked workers."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.output: List[str] = []
        self.url: Optional[str] = None
        self.worker_pids: List[int] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or self.url is None:
            self.kill()
            raise BenchmarkError("server did not start:\n" + "".join(self.output[-20:]))

    def _drain(self) -> None:
        """Read the server's output to its end, so its pipe never fills."""
        for line in self.process.stdout:
            self.output.append(line)
            pids = re.search(r"pids=\[([\d, ]+)\]", line)
            if pids:
                self.worker_pids = [int(p) for p in pids.group(1).split(",")]
            url = re.search(r"listening on (http://\S+)", line)
            if url:
                self.url = url.group(1)
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in [self.process.pid, *self.worker_pids])

    def stop(self) -> List[int]:
        """SIGINT the server and wait; returns the workers still running after it."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return list(self.worker_pids)
        self._reader.join(STOP_TIMEOUT_S)
        deadline = time.monotonic() + 5.0
        leaked = [pid for pid in self.worker_pids if _running(pid)]
        while leaked and time.monotonic() < deadline:
            time.sleep(0.05)
            leaked = [pid for pid in leaked if _running(pid)]
        for pid in leaked:
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in leaked) and time.monotonic() < deadline:
            time.sleep(0.05)
        return leaked

    def kill(self) -> None:
        """Last resort: SIGKILL the server and every worker, and wait for them."""
        for pid in self.worker_pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        self.process.kill()
        self.process.wait()
        self._reader.join(STOP_TIMEOUT_S)
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in self.worker_pids) and time.monotonic() < deadline:
            time.sleep(0.05)


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _request(client: ServeClient, spec: Dict, b: np.ndarray) -> Dict:
    response = client.solve_binary(problem=spec, b=b)
    return {
        "solution": np.array(response["solution"]),
        "converged": bool(response["converged"][0]),
        "iterations": int(response["iterations"][0]),
        "elapsed_s": float(response["elapsed_s"][0]),
    }


def lu_serve(seed: int, seconds: float, sizes: Sizes, trace: bool) -> Outcome:
    """Closed loop of one client over four DDM-LU operators."""
    layers = Layers() if trace else None
    outcome = Outcome()
    specs = [{"family": "poisson", "target_n": sizes.serve_nodes, "seed": s}
             for s in sizes.serve_specs]
    # in-process twins of the served operators: pools, references, setup layers
    sessions = [_timed_setup(lambda spec=spec: build_problem_from_spec(spec),
                             _config("ddm-lu"), None, layers)[0] for spec in specs]
    rng = np.random.default_rng(seed)
    pools = [[rng.standard_normal(s.problem.num_dofs) for _ in range(sizes.serve_pool)]
             for s in sessions]

    answers: List[tuple] = []
    stats: Dict = {}
    stops = leaks = 0
    for lifecycle in range(sizes.serve_lifecycles):
        server = Server()
        try:
            client = ServeClient(server.url, timeout=60.0, retries=0)
            for spec, pool in zip(specs, pools):
                _request(client, spec, pool[0])
            outcome.setup_s.append(time.perf_counter() - server.started)
            if lifecycle == 0:
                for spec, pool in zip(specs, pools):  # warm-up
                    for b in pool:
                        _request(client, spec, b)
                outcome.elapsed_s = _closed_loop(client, specs, pools, seconds,
                                                 answers, outcome.latencies_ms)
                if trace:
                    stats = client.stats()
                outcome.peak_rss_mb = server.peak_rss_mb()
        except BaseException:
            server.kill()
            raise
        leaked = server.stop()
        stops += 1
        leaks += bool(leaked)
        if leaked:
            outcome.notes.setdefault("leaked_workers", []).extend(leaked)

    outcome.rhs = sum(1 for *_, answer, _ in answers if answer is not None)
    references = {}
    for op, index, answer, error in answers:
        outcome.attempted += 1
        if error is not None:
            outcome.failed += 1
            continue
        if (op, index) not in references:
            references[op, index] = sessions[op].solve(pools[op][index]).solution
        b = pools[op][index]
        ok = (answer["converged"]
              and checks.bitwise_equal(answer["solution"], references[op, index])
              and checks.residual_ok(sessions[op].problem.matrix, b, answer["solution"],
                                     TOLERANCE))
        outcome.failed += not ok
    outcome.attempted += stops
    outcome.failed += leaks
    outcome.notes.update(nodes=[s.problem.num_dofs for s in sessions],
                         server_stops=stops, stops_with_leaked_workers=leaks,
                         errors=sorted({e for *_, e in answers if e is not None})[:3])
    if layers is not None:
        outcome.layers = _serve_layers(layers, answers, outcome.latencies_ms, stats)
    return outcome


def _closed_loop(client: ServeClient, specs, pools, seconds: float, answers: List[tuple],
                 latencies_ms: List[float]) -> float:
    """Send requests one after another, cycling over operators and pools."""
    start = time.perf_counter()
    request = 0
    while time.perf_counter() - start < seconds:
        op = request % len(specs)
        index = (request // len(specs)) % len(pools[op])
        sent = time.perf_counter()
        try:
            answer, error = _request(client, specs[op], pools[op][index]), None
        except (ServeClientError, urllib.error.URLError, OSError) as exc:
            answer, error = None, type(exc).__name__
        if answer is not None:
            latencies_ms.append(1e3 * (time.perf_counter() - sent))
        answers.append((op, index, answer, error))
        request += 1
    return time.perf_counter() - start


def _serve_layers(layers: Layers, answers, latencies_ms, stats: Dict) -> Dict[str, tuple]:
    """Per-layer figures of the served run: setup from the in-process twins,
    Krylov figures from the answers, serving stages from ``GET /stats``."""
    out = {name: (median(values), len(values)) for name, values in layers.setup.items()}
    served = [answer for *_, answer, _ in answers if answer is not None]
    iterations = [a["iterations"] for a in served]
    out["krylov.iters"] = (median(iterations), len(iterations))
    out["krylov.ms_per_iter"] = (1e3 * sum(a["elapsed_s"] for a in served)
                                 / max(sum(iterations), 1), sum(iterations))
    latency = stats.get("latency_ms", {})
    queue = latency.get("queue", {}).get("p50_ms") or 0.0
    solve = latency.get("solve", {}).get("p50_ms") or 0.0
    total = latency.get("total", {}).get("p50_ms") or 0.0
    count = int(latency.get("total", {}).get("count") or 0)
    client = median(latencies_ms)
    out["serve.queue_ms_p50"] = (queue, count)
    out["serve.solve_ms_p50"] = (solve, count)
    out["serve.transport_ms_p50"] = (client - total, len(latencies_ms))
    batches = sum(int((shard.get("stats") or {}).get("batches") or 0)
                  for shard in stats.get("shards", []))
    out["serve.batch_size_mean"] = (stats.get("mean_batch_size") or 0.0, batches)
    out["serve.cache_hit_rate"] = (stats.get("cache_hit_rate") or 0.0,
                                   int((stats.get("cache") or {}).get("hits", 0))
                                   + int((stats.get("cache") or {}).get("misses", 0)))
    out["trace.attributed_share"] = ((queue + solve + client - total) / client if client else 0.0,
                                     len(latencies_ms))
    return out
