"""The in-process workloads: gnn-solve and lu-march.

Each workload is set up several times (``setup_s`` is the median), warmed up,
then run in whole rounds of identical operations for the requested seconds,
and finally checked with :mod:`checks`.  In a traced run every other round
times the program's layers through :class:`common.LayerTimer`; the untraced
rounds in between give the tracing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.solvers.session as session_module
from repro.mesh import mesh_for_target_size
from repro.problems import make_problem
from repro.solvers import SolverConfig, prepare

import checks
from common import LayerTimer, load_fixed_model, median, peak_rss_mb, run_rounds

TOLERANCE = 1e-6
SUBDOMAIN_SIZE = 110
ELEMENT_SIZE = 0.07


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``TINY`` runs every workload in seconds for the self-tests."""

    gnn_nodes: int = 800
    #: fixed mesh geometry: 808 nodes, 7 sub-domains of about 115 nodes
    gnn_geometry: int = 22
    gnn_setups: int = 15
    #: members of the paper's random quadratic f/g family solved by gnn-solve
    solve_members: int = 4
    march_nodes: int = 4400
    #: fixed mesh geometry: 4432 nodes
    march_geometry: int = 17
    march_operators: int = 3
    march_steps: int = 20
    serve_nodes: int = 800
    #: fixed operator specs: 836, 823, 808 and 791 nodes
    serve_specs: tuple = (17, 18, 22, 25)
    serve_pool: int = 8
    serve_lifecycles: int = 3


FULL = Sizes()
TINY = Sizes(gnn_nodes=250, gnn_setups=1, solve_members=2, march_nodes=400,
             march_operators=1, march_steps=3, serve_nodes=200, serve_specs=(1, 2),
             serve_pool=2, serve_lifecycles=1)

#: family seeds of the fixed right-hand sides; the run's --seed draws one
#: positive scale per member.  DDM-GNN normalises every local residual, so a
#: scaled right-hand side takes the same iterations: the seed changes every
#: byte of the answers but not the work, which a run of a few 1.5-s solves
#: could not average over.
FAMILY_SEED = 101


@dataclass
class Outcome:
    """What one workload run measured."""

    setup_s: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    rhs: int = 0
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: per-layer metric name -> (value, samples); traced runs only
    layers: Dict[str, tuple] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


class Layers:
    """Per-layer accumulators of a traced run (sums over traced operations)."""

    def __init__(self) -> None:
        self.timer = LayerTimer()
        self.setup: Dict[str, List[float]] = {"problems.build_s": [], "partition.build_s": [],
                                              "precond.build_s": []}
        self.iterations: List[int] = []
        self.krylov_self_ms: List[float] = []
        self.rhs = 0
        self.solve_s = 0.0
        self.wall_s = 0.0
        self.traced_ms: List[float] = []
        self.untraced_ms: List[float] = []

    def record(self, before: Dict[str, float], wall_s: float, rhs: int,
               iterations: List[int], solve_s: Optional[float] = None) -> None:
        """Account one traced operation: ``wall_s`` on the benchmark's clock,
        ``solve_s`` the Krylov solves inside it (default: all of it)."""
        applies = self.timer.seconds["precond.apply"] - before.get("precond.apply", 0.0)
        solve_s = wall_s if solve_s is None else solve_s
        self.krylov_self_ms.append(1e3 * (solve_s - applies) / rhs)
        self.iterations.extend(iterations)
        self.rhs += rhs
        self.solve_s += solve_s
        self.wall_s += wall_s

    def metrics(self) -> Dict[str, tuple]:
        seconds, units = self.timer.seconds, self.timer.units
        applies = units.get("precond.apply", 0)
        per_apply = (lambda s: 1e3 * s / applies) if applies else (lambda s: 0.0)
        apply_s = seconds.get("precond.apply", 0.0)
        coarse_s = seconds.get("ddm.coarse", 0.0)
        infer_s = seconds.get("gnn.infer", 0.0)
        local_s = seconds.get("ddm.local_lu", 0.0)
        step_s = seconds.get("timestepping.step_rhs", 0.0)
        steps = units.get("timestepping.step_rhs", 0)
        overhead = (median(self.traced_ms) / median(self.untraced_ms) - 1.0
                    if self.traced_ms and self.untraced_ms else 0.0)
        out = {name: (median(values), len(values)) for name, values in self.setup.items()}
        out.update({
            "krylov.iters": (median(self.iterations), len(self.iterations)),
            "krylov.self_ms": (median(self.krylov_self_ms), len(self.krylov_self_ms)),
            "krylov.ms_per_iter": (1e3 * self.solve_s / max(sum(self.iterations), 1),
                                   sum(self.iterations)),
            "precond.applies": (applies / max(self.rhs, 1), self.rhs),
            "precond.apply_ms": (per_apply(apply_s), applies),
            "gnn.infer_ms": (per_apply(infer_s), units.get("gnn.infer", 0)),
            "ddm.coarse_ms": (per_apply(coarse_s), units.get("ddm.coarse", 0)),
            "ddm.local_lu_ms": (per_apply(local_s), units.get("ddm.local_lu", 0)),
            "ddm.glue_ms": (per_apply(apply_s - coarse_s - infer_s - local_s), applies),
            "timestepping.step_rhs_ms": (1e3 * step_s / steps if steps else 0.0, steps),
            "trace.overhead": (overhead, len(self.traced_ms)),
            "trace.attributed_share": ((self.solve_s + step_s) / self.wall_s
                                       if self.wall_s else 0.0, len(self.krylov_self_ms)),
        })
        return out


def _config(preconditioner: str, precision: str = "f64") -> SolverConfig:
    return SolverConfig(preconditioner=preconditioner, subdomain_size=SUBDOMAIN_SIZE,
                        tolerance=TOLERANCE, precision=precision)


def _mesh(nodes: int, geometry: int):
    return mesh_for_target_size(nodes, element_size=ELEMENT_SIZE,
                                rng=np.random.default_rng(geometry))


def _timed_setup(build, config: SolverConfig, model, layers: Optional[Layers]):
    """One setup from inputs to a prepared session; returns (session, seconds)."""
    if layers is not None:
        layers.timer.wrap(session_module, "build_decomposition", "partition.build")
    try:
        start = time.perf_counter()
        problem = build()
        built = time.perf_counter()
        session = prepare(problem, config, model=model)
        end = time.perf_counter()
    finally:
        if layers is not None:
            layers.timer.restore()
    if layers is not None:
        partition_s = layers.timer.seconds.pop("partition.build", 0.0)
        layers.timer.units.pop("partition.build", None)
        layers.setup["problems.build_s"].append(built - start)
        layers.setup["partition.build_s"].append(partition_s)
        layers.setup["precond.build_s"].append(end - built - partition_s)
    return session, end - start


def _wrap_preconditioner(timer: LayerTimer, session) -> None:
    """Time the apply and its coarse / local-solve / inference parts."""
    preconditioner = session.preconditioner
    timer.wrap(preconditioner, "apply", "precond.apply")
    if preconditioner.coarse_space is not None:
        timer.wrap(preconditioner.coarse_space, "apply", "ddm.coarse")
    if getattr(preconditioner, "model", None) is not None:
        timer.wrap(preconditioner.model, "infer", "gnn.infer")
    else:
        timer.wrap(preconditioner.local_solver, "solve_stacked", "ddm.local_lu")


def _timed_call(fn, layers: Optional[Layers], traced: bool, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    if layers is not None:
        (layers.traced_ms if traced else layers.untraced_ms).append(1e3 * wall)
    return result, wall


def _family_rhs(mesh, members: int, seed: int) -> List[np.ndarray]:
    """Fixed members of the random quadratic f/g family, each scaled by a
    positive factor drawn from the run's seed."""
    scales = np.random.default_rng(seed).uniform(0.5, 2.0, size=members)
    return [scale * make_problem("poisson", mesh=mesh,
                                 rng=np.random.default_rng(FAMILY_SEED + i)).rhs
            for i, scale in enumerate(scales)]


def _warm_up(session) -> None:
    """Apply the preconditioner once, so that every scratch buffer exists
    before timing."""
    rng = np.random.default_rng(0)
    session.preconditioner.apply(rng.standard_normal(session.problem.num_dofs))


def _poisson_builder(sizes: Sizes):
    def build():
        return make_problem("poisson", mesh=_mesh(sizes.gnn_nodes, sizes.gnn_geometry),
                            rng=np.random.default_rng(FAMILY_SEED))
    return build


# --------------------------------------------------------------------------- #
# gnn-solve
# --------------------------------------------------------------------------- #
def gnn_solve(seed: int, seconds: float, sizes: Sizes, trace: bool) -> Outcome:
    """DDM-GNN f64, two-level, one right-hand side per ``session.solve``."""
    model = load_fixed_model()
    layers = Layers() if trace else None
    outcome = Outcome()
    for _ in range(sizes.gnn_setups):
        session, setup_s = _timed_setup(_poisson_builder(sizes), _config("ddm-gnn"), model,
                                        layers)
        outcome.setup_s.append(setup_s)
    problem = session.problem
    pool = _family_rhs(problem.mesh, sizes.solve_members, seed)
    _warm_up(session)

    answers = []

    def one_round(index: int) -> None:
        traced = layers is not None and index % 2 == 1
        if traced:
            _wrap_preconditioner(layers.timer, session)
        try:
            for b in pool:
                before = layers.timer.snapshot() if traced else None
                try:
                    result, wall = _timed_call(session.solve, layers, traced, b)
                except Exception as error:  # noqa: BLE001 - a raising solve is a failed operation
                    answers.append((b, None, repr(error)))
                    continue
                outcome.latencies_ms.append(1e3 * wall)
                answers.append((b, result, None))
                if traced:
                    layers.record(before, wall, 1, [result.iterations])
        finally:
            if traced:
                layers.timer.restore()

    rounds, outcome.elapsed_s = run_rounds(seconds, one_round)
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.rhs = len(outcome.latencies_ms)
    for b, result, error in answers:
        outcome.attempted += 1
        ok = (error is None and result.converged
              and checks.residual_ok(problem.matrix, b, result.solution, TOLERANCE))
        outcome.failed += not ok
    outcome.notes.update(rounds=rounds, nodes=problem.num_dofs,
                         subdomains=session.decomposition.num_subdomains,
                         iterations=sorted({r.iterations for _, r, e in answers if e is None}))
    if layers is not None:
        outcome.layers = layers.metrics()
    return outcome


# --------------------------------------------------------------------------- #
# lu-march
# --------------------------------------------------------------------------- #
def lu_march(seed: int, seconds: float, sizes: Sizes, trace: bool) -> Outcome:
    """Backward-Euler heat trajectories, DDM-LU, warm-started march steps."""
    layers = Layers() if trace else None
    outcome = Outcome()
    sessions = []
    for i in range(sizes.march_operators):
        def build(i=i):
            return make_problem("heat", mesh=_mesh(sizes.march_nodes, sizes.march_geometry),
                                rng=np.random.default_rng((seed, i)), dt=0.01, theta=1.0)

        session, setup_s = _timed_setup(build, _config("ddm-lu"), None, layers)
        sessions.append(session)
        outcome.setup_s.append(setup_s)
    steps = sizes.march_steps

    def trajectory(session, traced: bool) -> tuple:
        """March one trajectory a step at a time; returns (final state, error)."""
        u = session.problem.initial_state
        for _ in range(steps):
            before = layers.timer.snapshot() if traced else None
            try:
                march, wall = _timed_call(session.march, layers, traced, u0=u, steps=1)
            except Exception as error:  # noqa: BLE001 - a raising step fails the trajectory
                return None, repr(error)
            result = march.results[0]
            outcome.latencies_ms.append(1e3 * wall)
            if not result.converged:
                return None, f"step not converged ({result.failure_reason})"
            u = result.solution
            if traced:
                solve_s = layers.timer.seconds["session.solve"] - before.get("session.solve", 0.0)
                layers.record(before, wall, 1, [result.iterations], solve_s=solve_s)
        return u, None

    trajectory(sessions[0], traced=False)  # warm-up
    outcome.latencies_ms.clear()
    if layers is not None:
        layers.untraced_ms.clear()
    finals = []

    def one_round(index: int) -> None:
        traced = layers is not None and index % 2 == 1
        for number, session in enumerate(sessions):
            if traced:
                _wrap_preconditioner(layers.timer, session)
                layers.timer.wrap(session, "solve", "session.solve")
                layers.timer.wrap(session.problem, "step_rhs", "timestepping.step_rhs")
            try:
                finals.append((number, *trajectory(session, traced)))
            finally:
                if traced:
                    layers.timer.restore()

    rounds, outcome.elapsed_s = run_rounds(seconds, one_round)
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.rhs = len(outcome.latencies_ms)

    references = []
    for session in sessions:
        problem = session.problem
        nodes = (problem.dirichlet_nodes if problem.dirichlet_nodes is not None
                 else problem.mesh.boundary_nodes)
        reference = checks.ThetaReference(problem.matrix, problem.explicit_operator,
                                          problem.step_load, nodes, problem.boundary_values)
        references.append(reference.march(problem.initial_state, steps))
    errors = []
    for number, u, error in finals:
        outcome.attempted += steps
        ok = error is None and checks.march_ok(u, references[number], steps, TOLERANCE)
        if error is None:
            errors.append(checks.march_error(u, references[number]))
        outcome.failed += 0 if ok else steps
    outcome.notes.update(rounds=rounds, nodes=sessions[0].problem.num_dofs,
                         subdomains=sessions[0].decomposition.num_subdomains,
                         max_final_error=max(errors) if errors else None,
                         error_bound=checks.march_bound(steps, TOLERANCE))
    if layers is not None:
        outcome.layers = layers.metrics()
    return outcome
