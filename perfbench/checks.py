"""Output checks, computed apart from the solver under test.

Each check takes the program's answer and the inputs and returns True when the
answer is right.  They use scipy and numpy directly (sparse products, a
SuperLU direct solve, byte comparison), never the program's Krylov methods or
preconditioners, and ``selftest.py`` shows that each one rejects a perturbed
answer.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: bound on max|u - u_ref| / max|u_ref| after a march, per step and per unit
#: of Krylov tolerance.  Each backward-Euler step solves to a relative residual
#: of ``tol`` and the step map is contractive, so the final-state error grows
#: at most linearly with the steps; 5 covers the conditioning of the step
#: operator (measured: 1.3e-6 to 1.6e-6 after 20 steps, about 0.07·steps·tol).
MARCH_ERROR_PER_STEP_TOL = 5.0


def relative_residual(matrix: sp.spmatrix, b: np.ndarray, x: np.ndarray) -> float:
    """True relative residual ``‖b − A x‖ / ‖b‖`` from one scipy SpMV."""
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(b - matrix @ x) / np.linalg.norm(b))


def residual_ok(matrix: sp.spmatrix, b: np.ndarray, x: np.ndarray, tolerance: float) -> bool:
    """The answer solves ``A x = b`` to the requested relative tolerance."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != np.shape(b) or not np.all(np.isfinite(x)):
        return False
    return relative_residual(matrix, b, x) <= tolerance


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, same dtype, same bytes."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class ThetaReference:
    """A θ-scheme trajectory marched with a SuperLU factorisation.

    Takes the assembled step operator ``Op`` (Dirichlet rows eliminated), the
    explicit operator ``E``, the constant step load and the Dirichlet data,
    and repeats ``u ← Op⁻¹ (E u + load)`` with the Dirichlet rows pinned —
    the scheme the program marches, solved directly instead of by DDM-PCG.
    """

    def __init__(self, step_operator, explicit_operator, step_load, dirichlet_nodes,
                 dirichlet_values) -> None:
        self._lu = spla.splu(sp.csc_matrix(step_operator))
        self._explicit = sp.csr_matrix(explicit_operator)
        self._load = np.asarray(step_load, dtype=np.float64)
        self._nodes = np.asarray(dirichlet_nodes, dtype=np.int64)
        self._values = np.asarray(dirichlet_values, dtype=np.float64)

    def march(self, u0: np.ndarray, steps: int) -> np.ndarray:
        u = np.asarray(u0, dtype=np.float64).copy()
        u[self._nodes] = self._values
        for _ in range(steps):
            b = self._explicit @ u + self._load
            b[self._nodes] = self._values
            u = self._lu.solve(b)
        return u


def march_bound(steps: int, tolerance: float) -> float:
    """Allowed relative max-norm error of a marched final state."""
    return MARCH_ERROR_PER_STEP_TOL * steps * tolerance


def march_ok(u: np.ndarray, reference: np.ndarray, steps: int, tolerance: float) -> bool:
    """The marched final state agrees with the direct trajectory."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != reference.shape or not np.all(np.isfinite(u)):
        return False
    return march_error(u, reference) <= march_bound(steps, tolerance)


def march_error(u: np.ndarray, reference: np.ndarray) -> float:
    """Relative max-norm distance of a marched state from the reference."""
    return float(np.max(np.abs(u - reference)) / np.max(np.abs(reference)))
