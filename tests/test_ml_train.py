import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.network import FeedForwardNetwork
from repro.ml.train import (
    EQUIVALENCE_RTOL,
    _chol_inverse_trace,
    _chol_solve,
    train_bayesian_lm,
)


def toy_problem(n=150, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 3))
    y = np.sin(2 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2]
    return x, y


class TestBayesianLM:
    def test_fits_nonlinear_function(self):
        x, y = toy_problem()
        net = FeedForwardNetwork([3, 10, 1], rng=np.random.default_rng(1))
        result = train_bayesian_lm(net, x, y)
        assert result.train_mse < 0.01

    def test_respects_epoch_cap(self):
        x, y = toy_problem()
        net = FeedForwardNetwork([3, 10, 1], rng=np.random.default_rng(1))
        result = train_bayesian_lm(net, x, y, max_epochs=5)
        assert result.epochs <= 5

    def test_effective_parameters_bounded(self):
        x, y = toy_problem()
        net = FeedForwardNetwork([3, 10, 1], rng=np.random.default_rng(2))
        result = train_bayesian_lm(net, x, y)
        assert 0 < result.effective_parameters <= net.n_weights

    def test_hyperparameters_positive(self):
        x, y = toy_problem()
        net = FeedForwardNetwork([3, 8, 1], rng=np.random.default_rng(3))
        result = train_bayesian_lm(net, x, y)
        assert result.alpha > 0 and result.beta > 0

    def test_regularization_shrinks_on_noise(self):
        """Pure-noise targets should yield few effective parameters."""
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(100, 3))
        y = rng.standard_normal(100)
        net = FeedForwardNetwork([3, 10, 1], rng=rng)
        result = train_bayesian_lm(net, x, y)
        assert result.effective_parameters < net.n_weights * 0.8

    def test_linear_function_learned_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(80, 2))
        y = 3 * x[:, 0] - 2 * x[:, 1]
        net = FeedForwardNetwork([2, 6, 1], rng=rng)
        train_bayesian_lm(net, x, y)
        x_test = rng.uniform(-0.8, 0.8, size=(20, 2))
        y_test = 3 * x_test[:, 0] - 2 * x_test[:, 1]
        assert np.abs(net.predict(x_test) - y_test).max() < 0.1

    def test_bad_shapes_rejected(self):
        net = FeedForwardNetwork([3, 4, 1], rng=np.random.default_rng(0))
        with pytest.raises(TrainingError):
            train_bayesian_lm(net, np.ones(5), np.ones(5))
        with pytest.raises(TrainingError):
            train_bayesian_lm(net, np.ones((5, 3)), np.ones(4))
        with pytest.raises(TrainingError):
            train_bayesian_lm(net, np.empty((0, 3)), np.empty(0))

    def test_deterministic_given_same_init(self):
        x, y = toy_problem()
        net1 = FeedForwardNetwork([3, 6, 1], rng=np.random.default_rng(7))
        net2 = FeedForwardNetwork([3, 6, 1], rng=np.random.default_rng(7))
        train_bayesian_lm(net1, x, y, max_epochs=30)
        train_bayesian_lm(net2, x, y, max_epochs=30)
        assert np.allclose(net1.get_weights(), net2.get_weights())


def _reference_lm(net, x, y, max_epochs, tolerance=1e-7, mu0=5e-3, mu_max=1e10):
    """The seed implementation: LU step solve + explicit inverse trace,
    separate predict()/jacobian() forwards.  The Cholesky path must stay
    numerically equivalent to this (see ``EQUIVALENCE_RTOL``)."""
    n_samples = x.shape[0]
    n_weights = net.n_weights
    identity = np.eye(n_weights)
    alpha, beta = 1e-2, 1.0
    mu = mu0
    w = net.get_weights()

    def energies(weights):
        net.set_weights(weights)
        residuals = net.predict(x) - y
        return residuals, float(residuals @ residuals), float(weights @ weights)

    residuals, e_d, e_w = energies(w)
    objective = beta * e_d + alpha * e_w
    for _ in range(max_epochs):
        jac = net.jacobian(x)
        jtj = jac.T @ jac
        grad = beta * (jac.T @ residuals) + alpha * w
        improved = False
        while mu <= mu_max:
            try:
                step = np.linalg.solve(beta * jtj + (alpha + mu) * identity, grad)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            w_new = w - step
            residuals_new, e_d_new, e_w_new = energies(w_new)
            objective_new = beta * e_d_new + alpha * e_w_new
            if objective_new < objective:
                w, residuals, e_d, e_w = w_new, residuals_new, e_d_new, e_w_new
                objective = objective_new
                mu = max(mu / 10.0, 1e-12)
                improved = True
                break
            mu *= 10.0
        if not improved:
            net.set_weights(w)
            break
        h_inv = np.linalg.inv(beta * jtj + alpha * identity)
        gamma = float(np.clip(n_weights - alpha * np.trace(h_inv), 0.1, n_weights))
        alpha = gamma / max(2.0 * e_w, 1e-12)
        beta = max(n_samples - gamma, 1e-3) / max(2.0 * e_d, 1e-12)
        objective = beta * e_d + alpha * e_w
    net.set_weights(w)
    return w, alpha, beta


class TestCholeskyFactorizationPath:
    """The single-Cholesky step/trace path vs the LU + inv reference."""

    def spd_problem(self, seed=0):
        x, y = toy_problem(seed=seed)
        net = FeedForwardNetwork([3, 6, 1], rng=np.random.default_rng(seed + 1))
        jac = net.jacobian(x)
        hessian = 1.7 * (jac.T @ jac) + 0.3 * np.eye(net.n_weights)
        return hessian, net.n_weights

    def test_step_solve_matches_lu(self):
        hessian, n = self.spd_problem()
        grad = np.random.default_rng(9).standard_normal(n)
        chol = np.linalg.cholesky(hessian)
        assert np.allclose(
            _chol_solve(chol, grad),
            np.linalg.solve(hessian, grad),
            rtol=EQUIVALENCE_RTOL,
        )

    def test_inverse_trace_matches_explicit_inverse(self):
        hessian, n = self.spd_problem(seed=3)
        chol = np.linalg.cholesky(hessian)
        assert np.isclose(
            _chol_inverse_trace(chol, np.eye(n)),
            float(np.trace(np.linalg.inv(hessian))),
            rtol=EQUIVALENCE_RTOL,
        )

    def test_trainer_tracks_lu_reference(self):
        x, y = toy_problem()
        net_a = FeedForwardNetwork([3, 6, 1], rng=np.random.default_rng(11))
        net_b = FeedForwardNetwork([3, 6, 1], rng=np.random.default_rng(11))
        train_bayesian_lm(net_a, x, y, max_epochs=5)
        w_ref, alpha_ref, beta_ref = _reference_lm(net_b, x, y, max_epochs=5)
        assert np.allclose(net_a.get_weights(), w_ref, rtol=EQUIVALENCE_RTOL)

    def test_zero_epochs_still_reports_finite_gamma(self):
        x, y = toy_problem()
        net = FeedForwardNetwork([3, 6, 1], rng=np.random.default_rng(4))
        result = train_bayesian_lm(net, x, y, max_epochs=0)
        assert result.epochs == 0
        assert np.isfinite(result.effective_parameters)


class CountingNetwork(FeedForwardNetwork):
    """Counts forward passes to pin the no-redundant-Jacobian contract."""

    combined_calls = 0
    jacobian_calls = 0

    def forward_with_jacobian(self, x):
        self.combined_calls += 1
        return super().forward_with_jacobian(x)

    def jacobian(self, x):
        self.jacobian_calls += 1
        return super().jacobian(x)


class TestForwardReuse:
    def test_lm_runs_one_combined_pass_per_epoch(self):
        x, y = toy_problem()
        net = CountingNetwork([3, 6, 1], rng=np.random.default_rng(1))
        result = train_bayesian_lm(net, x, y, max_epochs=10)
        # The end-of-training report recomputes the Jacobian at most
        # once (never, when the last epoch left the weights unchanged).
        assert net.jacobian_calls <= 1
        assert net.combined_calls == result.epochs + net.jacobian_calls
