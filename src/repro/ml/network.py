"""Feed-forward neural network with analytic Jacobians.

Matches the paper's surrogate topology — 6 inputs, hidden layers of 14
and 4 tanh units, one linear output (§4.3) — and exposes the per-sample
output-weight Jacobian needed by Levenberg-Marquardt training.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError


class FeedForwardNetwork:
    """Dense tanh network with a linear output unit.

    Weights are owned as per-layer ``(W, b)`` pairs and can be viewed as
    one flat vector (:meth:`get_weights`/:meth:`set_weights`) for the
    optimizer and the Bayesian-evidence bookkeeping.
    """

    def __init__(self, layer_sizes: Sequence[int], rng: Optional[np.random.Generator] = None):
        if len(layer_sizes) < 2:
            raise TrainingError("need at least input and output layers")
        if any(s <= 0 for s in layer_sizes):
            raise TrainingError("layer sizes must be positive")
        self.layer_sizes = list(layer_sizes)
        rng = rng if rng is not None else np.random.default_rng()
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            # Nguyen-Widrow-flavoured init: small scaled uniform weights.
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-limit, limit, size=fan_out))

    # -- weight vector view ---------------------------------------------------

    @property
    def n_weights(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_weights(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.n_weights:
            raise TrainingError(
                f"weight vector has {flat.size} entries, expected {self.n_weights}"
            )
        offset = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[offset : offset + w.size].reshape(w.shape)
            offset += w.size
            self.biases[i] = flat[offset : offset + b.size].reshape(b.shape)
            offset += b.size

    def clone(self) -> "FeedForwardNetwork":
        # Bypass __init__: drawing a full random init just to overwrite it
        # was measurable in the ensemble checkpoint/canary hot paths.
        other = FeedForwardNetwork.__new__(FeedForwardNetwork)
        other.layer_sizes = list(self.layer_sizes)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    # -- forward ----------------------------------------------------------------

    def _forward_full(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Forward pass keeping post-activation values per layer."""
        a = np.asarray(x, dtype=float)
        if a.ndim == 1:
            a = a[None, :]
        activations = [a]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == n_layers - 1 else np.tanh(z)
            activations.append(a)
        return a, activations

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Network output; (n,) for a single output unit."""
        out, _ = self._forward_full(x)
        return out[:, 0] if out.shape[1] == 1 else out

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Row-stable inference forward pass: ``(n, d) -> (n,)``.

        The single-network form of the inference kernel, and the
        reference :class:`~repro.ml.ensemble.NetworkEnsemble`'s stacked
        forward is tested against.  Inference (ensemble queries, batched
        GA fitness) needs each output row to be bit-identical whether
        the row is evaluated alone or inside a larger matrix.  BLAS ``@``
        does not guarantee that — gemm and gemv accumulate in different
        orders — so this path contracts with ``einsum``, whose per-row reduction
        order is independent of the batch size.  Training keeps the BLAS
        path (:meth:`predict`/:meth:`jacobian`), where row stability is
        irrelevant and raw speed on large Jacobians wins.
        """
        if self.layer_sizes[-1] != 1:
            raise TrainingError("forward_rows supports single-output networks only")
        a = np.asarray(x, dtype=float)
        if a.ndim == 1:
            a = a[None, :]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = np.einsum("ij,jk->ik", a, w) + b
            a = z if i == n_layers - 1 else np.tanh(z)
        return a[:, 0]

    # -- jacobian -------------------------------------------------------------------

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """d output / d weights, one row per sample (single-output nets).

        Standard backprop with a unit seed at the linear output; used by
        the Levenberg-Marquardt trainer where residual Jacobian rows are
        exactly these derivatives.
        """
        return self.forward_with_jacobian(x)[1]

    def forward_with_jacobian(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One forward pass serving both prediction and weight Jacobian.

        Both trainers need the network output *and* its derivative at
        the same weights every step; calling :meth:`predict` then
        :meth:`jacobian` forwards the batch twice.  The forward pass
        already produces the activations backprop needs, so this method
        returns ``(predictions, jacobian)`` for the cost of one forward
        — bit-identical to the two separate calls (same
        :meth:`_forward_full` path, same reduction order).
        """
        if self.layer_sizes[-1] != 1:
            raise TrainingError(
                "forward_with_jacobian supports single-output networks only"
            )
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        out, acts = self._forward_full(x)
        n = x.shape[0]
        grads: List[np.ndarray] = []
        # delta at output: d out / d z_L = 1 (linear unit).
        delta = np.ones((n, 1))
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = acts[i]
            # dW = a_prev^T delta per sample; db = delta.
            gw = a_prev[:, :, None] * delta[:, None, :]  # (n, fan_in, fan_out)
            gb = delta
            grads.append(np.concatenate([gw.reshape(n, -1), gb], axis=1))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        # grads collected output->input; the flat vector is input->output.
        return out[:, 0], np.concatenate(list(reversed(grads)), axis=1)

    def __repr__(self) -> str:
        return f"FeedForwardNetwork({self.layer_sizes}, {self.n_weights} weights)"
