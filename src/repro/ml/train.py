"""Network training: Bayesian-regularized Levenberg-Marquardt.

This is the from-scratch analogue of MATLAB's ``trainbr`` the paper uses
(§3.6.2): minimize ``F = beta * E_D + alpha * E_W`` where ``E_D`` is the
sum of squared residuals and ``E_W`` the sum of squared weights, with
the hyperparameters re-estimated each epoch from MacKay's evidence
framework:

* ``gamma = W - alpha * tr(H^-1)`` — the effective number of parameters,
* ``alpha = gamma / (2 E_W)``, ``beta = (N - gamma) / (2 E_D)``.

Training runs to convergence or 200 epochs, whichever comes first — the
paper stresses it must not early-stop (§3.6.2).

Numerical note (factorization reuse): the regularized Hessians here —
``beta J^T J + (alpha + mu) I`` for the LM step and ``beta J^T J +
alpha I`` for the evidence update — are symmetric positive definite by
construction, so each is factored **once with Cholesky** and the factor
is reused for every solve against it: the step solve runs two
triangular substitutions, and the evidence trace term uses
``tr(H^-1) = ||L^-1||_F^2`` (one triangular solve against the
identity) instead of the explicit ``np.linalg.inv`` + ``trace`` the
seed implementation paid per epoch.  The original ``LinAlgError``
fallbacks are preserved verbatim: a non-positive-definite step Hessian
escalates ``mu``, a failed evidence factorization falls back to
``gamma = W/2``.  Equivalence to the LU-solve/explicit-inverse
reference is *numerical, not bitwise* — factorization order differs —
within ``EQUIVALENCE_RTOL`` relative tolerance on weights, gamma, and
the objective (pinned by ``tests/test_ml_train.py``); determinism
under a fixed seed is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TrainingError
from repro.ml.network import FeedForwardNetwork

#: The paper's epoch cap (§4.3).
MAX_EPOCHS = 200

#: Documented numerical-equivalence tolerance of the Cholesky path
#: against the LU-solve / explicit-inverse reference implementation.
EQUIVALENCE_RTOL = 1e-6


def _tri_solve(chol_lower: np.ndarray, b: np.ndarray, transpose: bool = False):
    """Solve ``L x = b`` (or ``L^T x = b``) for a lower-triangular L."""
    # Deferred: only training loads scipy.linalg (~0.2 s), and once
    # loaded this import is a ~0.3 us lookup against a ~100 us solve.
    from scipy.linalg import solve_triangular

    return solve_triangular(
        chol_lower, b, lower=True, trans=1 if transpose else 0, check_finite=False
    )


def _chol_solve(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` by two triangular substitutions."""
    return _tri_solve(chol_lower, _tri_solve(chol_lower, b), transpose=True)


def _chol_inverse_trace(chol_lower: np.ndarray, identity: np.ndarray) -> float:
    """``tr(H^-1)`` for ``H = L L^T``: since ``H^-1 = L^-T L^-1``,
    the trace is the squared Frobenius norm of ``L^-1``."""
    inv_l = _tri_solve(chol_lower, identity)
    return float(np.einsum("ij,ij->", inv_l, inv_l))


@dataclass
class TrainingResult:
    """Diagnostics from one training run."""

    epochs: int
    train_mse: float
    objective: float
    alpha: float
    beta: float
    effective_parameters: float
    converged: bool


def _check_data(x: np.ndarray, y: np.ndarray) -> tuple:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2:
        raise TrainingError("x must be a 2-D feature matrix")
    if x.shape[0] != y.shape[0]:
        raise TrainingError("x and y disagree on sample count")
    if x.shape[0] == 0:
        raise TrainingError("no training samples")
    return x, y


def train_bayesian_lm(
    net: FeedForwardNetwork,
    x: np.ndarray,
    y: np.ndarray,
    max_epochs: int = MAX_EPOCHS,
    tolerance: float = 1e-7,
    mu0: float = 5e-3,
    mu_max: float = 1e10,
) -> TrainingResult:
    """Train ``net`` in place with LM + Bayesian regularization.

    ``x``/``y`` should already be standardized (see
    :class:`~repro.ml.scaler.StandardScaler`); the evidence estimates
    assume unit-scale targets.
    """
    x, y = _check_data(x, y)
    n_samples = x.shape[0]
    n_weights = net.n_weights
    identity = np.eye(n_weights)

    alpha, beta = 1e-2, 1.0
    mu = mu0
    w = net.get_weights()

    def energies(weights: np.ndarray) -> tuple:
        net.set_weights(weights)
        residuals = net.predict(x) - y
        e_d = float(residuals @ residuals)
        e_w = float(weights @ weights)
        return residuals, e_d, e_w

    _, e_d, e_w = energies(w)
    objective = beta * e_d + alpha * e_w
    converged = False
    epoch = 0
    jtj: Optional[np.ndarray] = None
    # Whether ``jtj`` was computed at the *current* ``w`` — lets the
    # final-report block skip a redundant Jacobian when the last epoch
    # left the weights unchanged (trust-region-exhausted break).
    jtj_current = False

    for epoch in range(1, max_epochs + 1):
        # One forward pass serves both the residuals and the Jacobian
        # rows (``energies`` already left the net at ``w``).
        pred, jac = net.forward_with_jacobian(x)
        residuals = pred - y
        jtj = jac.T @ jac
        jtj_current = True
        grad = beta * (jac.T @ residuals) + alpha * w

        improved = False
        while mu <= mu_max:
            hessian = beta * jtj + (alpha + mu) * identity
            try:
                chol = np.linalg.cholesky(hessian)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            step = _chol_solve(chol, grad)
            w_new = w - step
            _, e_d_new, e_w_new = energies(w_new)
            objective_new = beta * e_d_new + alpha * e_w_new
            if objective_new < objective:
                w, e_d, e_w = w_new, e_d_new, e_w_new
                jtj_current = False
                gain = objective - objective_new
                objective = objective_new
                mu = max(mu / 10.0, 1e-12)
                improved = True
                if gain < tolerance * max(objective, 1e-12):
                    converged = True
                break
            mu *= 10.0
        if not improved:
            converged = True  # LM trust region exhausted: local optimum
            net.set_weights(w)
            break

        # MacKay evidence update of (alpha, beta).
        hessian = beta * jtj + alpha * identity
        try:
            chol = np.linalg.cholesky(hessian)
            gamma = n_weights - alpha * _chol_inverse_trace(chol, identity)
        except np.linalg.LinAlgError:
            gamma = n_weights / 2.0
        gamma = float(np.clip(gamma, 0.1, n_weights))
        alpha = gamma / max(2.0 * e_w, 1e-12)
        n_eff = max(n_samples - gamma, 1e-3)
        beta = n_eff / max(2.0 * e_d, 1e-12)
        objective = beta * e_d + alpha * e_w

        if converged:
            break

    net.set_weights(w)
    # Final gamma for reporting; reuse the loop's J^T J when the weights
    # have not moved since it was computed.
    try:
        if jtj is None or not jtj_current:
            jac = net.jacobian(x)
            jtj = jac.T @ jac
        chol = np.linalg.cholesky(beta * jtj + alpha * identity)
        gamma = n_weights - alpha * _chol_inverse_trace(chol, identity)
    except np.linalg.LinAlgError:
        gamma = float("nan")
    return TrainingResult(
        epochs=epoch,
        train_mse=e_d / n_samples,
        objective=objective,
        alpha=alpha,
        beta=beta,
        effective_parameters=gamma,
        converged=converged,
    )
