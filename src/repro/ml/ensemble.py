"""Network ensembles with worst-member pruning.

"To improve generalizability, we initialize the same neural network
using different edge weights and utilize the average across multiple
(20) networks.  Further, we utilize simple ensemble pruning by removing
the top 30% of the networks that produce the highest reported training
error.  The final performance value would be an average of 14 networks"
(paper §3.6.2).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.ml.network import FeedForwardNetwork
from repro.ml.scaler import StandardScaler
from repro.ml.train import TrainingResult, train_bayesian_lm
from repro.runtime.backend import ExecutionBackend, resolve_backend
from repro.sim.rng import SeedLike, derive_rng

#: Paper defaults (§3.6.2, §4.3).
DEFAULT_ENSEMBLE_SIZE = 20
DEFAULT_PRUNE_FRACTION = 0.30
DEFAULT_HIDDEN_LAYERS = (14, 4)


@dataclass(frozen=True)
class EnsembleConfig:
    """Hyperparameters of the surrogate ensemble."""

    hidden_layers: Sequence[int] = DEFAULT_HIDDEN_LAYERS
    n_networks: int = DEFAULT_ENSEMBLE_SIZE
    prune_fraction: float = DEFAULT_PRUNE_FRACTION
    max_epochs: int = 200

    def __post_init__(self):
        if self.n_networks < 1:
            raise TrainingError("ensemble needs at least one network")
        if not (0.0 <= self.prune_fraction < 1.0):
            raise TrainingError("prune_fraction must be in [0, 1)")


@dataclass(frozen=True)
class MemberTask:
    """One ensemble member's training job (standardized data + seed)."""

    seed: int
    layer_sizes: Tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    max_epochs: int


def train_member_task(task: MemberTask) -> Tuple[FeedForwardNetwork, TrainingResult]:
    """Initialize and train one member (module-level for picklability)."""
    net = FeedForwardNetwork(task.layer_sizes, rng=np.random.default_rng(task.seed))
    result = train_bayesian_lm(net, task.x, task.y, max_epochs=task.max_epochs)
    return net, result


class NetworkEnsemble:
    """Average of independently initialized Bayesian-regularized nets.

    Handles feature/target standardization internally: callers pass raw
    features (RR + unit-encoded parameters) and raw AOPS targets.
    """

    def __init__(self, config: Optional[EnsembleConfig] = None):
        self.config = config or EnsembleConfig()
        self.networks: List[FeedForwardNetwork] = []
        self.training_results: List[TrainingResult] = []
        self.pruned_count = 0
        self.x_scaler = StandardScaler()
        self.y_scaler = StandardScaler()
        #: Derived ``(sources, weights, biases)`` stack; see _stacked_layers.
        self._stacked = None

    @property
    def is_fitted(self) -> bool:
        return bool(self.networks)

    @property
    def active_count(self) -> int:
        return len(self.networks)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        seed: SeedLike = 0,
        backend: Optional[ExecutionBackend] = None,
    ) -> "NetworkEnsemble":
        """Train the full ensemble, then prune by training error.

        Each member trains from its own pre-derived stream (spawned from
        ``seed`` up front), so members are independent work units:
        ``backend`` fans the training out across processes with results
        identical to a serial run.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise TrainingError("bad training data shapes")
        xs = self.x_scaler.fit_transform(x)
        ys = self.y_scaler.fit_transform(y)

        rng = derive_rng(seed)
        layer_sizes = (x.shape[1], *self.config.hidden_layers, 1)
        tasks = [
            MemberTask(
                seed=int(rng.integers(0, 2**63 - 1)),
                layer_sizes=layer_sizes,
                x=xs,
                y=ys,
                max_epochs=self.config.max_epochs,
            )
            for _ in range(self.config.n_networks)
        ]
        trained = resolve_backend(backend).map_tasks(train_member_task, tasks)

        # Stable sort + per-member training being scheduling-independent
        # keeps the pruned ensemble identical across backends.
        trained.sort(key=lambda pair: pair[1].train_mse)
        keep = max(
            1,
            int(round(self.config.n_networks * (1.0 - self.config.prune_fraction))),
        )
        self.pruned_count = len(trained) - keep
        self.networks = [net for net, _ in trained[:keep]]
        self.training_results = [res for _, res in trained[:keep]]
        return self

    def __getstate__(self):
        # The stacked tensors are derived from the member arrays: they
        # stay out of pickles (state blobs, fingerprints) and are rebuilt
        # on the first query after a load.
        state = self.__dict__.copy()
        del state["_stacked"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._stacked = None

    def _stacked_layers(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-layer weights and biases of the members, restacked
        whenever a member array changed.  A wide layer's are held
        ``(M, fan_out, fan_in)`` and ``(M, fan_out, 1)``, a width-1
        layer's ``(M, fan_in, fan_out)`` and ``(M, 1, fan_out)``: the
        layouts its contraction reads and its pre-activations come out
        in (see :meth:`_member_mean`).

        Callers *rebind* member arrays (``set_weights``, a loaded
        ``networks`` list, ``net.weights[0] = ...``), so the stack is
        revalidated on every query by the identity of each source array:
        replacing any of them changes the next prediction.  Member
        arrays are values — replace them, never write into them.
        """
        sources = [a for net in self.networks for a in net.weights + net.biases]
        cached = self._stacked
        if (
            cached is not None
            and len(cached[0]) == len(sources)
            and all(map(operator.is_, cached[0], sources))
        ):
            return cached[1], cached[2]
        sizes = self.networks[0].layer_sizes
        if sizes[-1] != 1 or any(net.layer_sizes != sizes for net in self.networks):
            raise TrainingError(
                "ensemble members must share one single-output topology"
            )
        weights, biases = [], []
        for i in range(len(sizes) - 1):
            w = np.stack([net.weights[i] for net in self.networks])
            b = np.stack([net.biases[i] for net in self.networks])
            wide = sizes[i] > 1 and sizes[i + 1] > 1
            weights.append(np.ascontiguousarray(w.transpose(0, 2, 1)) if wide else w)
            biases.append(np.ascontiguousarray(b[:, :, None]) if wide else b[:, None, :])
        self._stacked = (sources, weights, biases)
        return weights, biases

    def _member_mean(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every member's forward pass and their mean, in standardized
        target units, from checked raw rows ``(n, d)`` (see :meth:`_rows`).

        The features are standardized with
        :meth:`StandardScaler.transform`'s elementwise ops,
        ``(x - mean) / scale``, written straight into the layout layer 0
        reads.  The members share one topology, so each layer is one
        ``einsum`` over the whole ensemble: ``(n, d) -> (M, n)``.
        ``einsum`` (not BLAS ``@``) keeps every output row bit-identical
        whether it is evaluated alone or inside a batch, and row ``m``
        bit-identical to ``networks[m].forward_rows`` on the standardized
        rows.

        A wide layer (``fan_in > 1 and fan_out > 1``) runs rows-innermost:
        activations are held ``(M, width, n)`` (layer 0's input
        ``(d, n)``), weights ``(M, fan_out, fan_in)``, and the
        contraction's inner loop walks the row axis instead of a fan axis
        4-14 long.  That is the same multiply-add per output element as
        ``forward_rows``, sequential in ``j``, so the bits do not move —
        while there is a row axis to walk: with one row, ``einsum`` dots
        along the contiguous ``fan_in`` axis in another order.  A
        one-row query is therefore scored as two copies of its row.  A
        width-1 layer reduces through a dot kernel whose accumulation
        order follows its operands' strides, so it keeps the
        ``(M, n, fan_in)`` C layout ``forward_rows`` gives it.
        ``tanh(order="C")`` writes each activation in the layout the next
        layer reads.

        The mean accumulates the members sequentially with elementwise
        ops: unlike an ``np.mean`` axis reduction (whose unrolled base
        cases change accumulation order with the column count), it is
        row-stable too.
        """
        weights, biases = self._stacked_layers()
        mean, scale = self.x_scaler.mean_, self.x_scaler.scale_
        n = len(x)
        if n == 1:  # keep a row axis for the wide layers to walk
            x = np.concatenate((x, x))
        rows_inner = False
        for layer, (w, b) in enumerate(zip(weights, biases)):
            wide = w.shape[1] > 1 and w.shape[2] > 1
            if layer:
                a = np.tanh(a if wide == rows_inner else a.transpose(0, 2, 1), order="C")
            elif wide:
                a = np.subtract(x.T, mean[:, None], out=np.empty(x.shape[::-1]))
                a /= scale[:, None]
            else:
                a = (x - mean) / scale
            if wide:
                a = np.einsum("mkj,mji->mki" if layer else "mkj,ji->mki", w, a)
            else:
                a = np.einsum("mij,mjk->mik" if layer else "ij,mjk->mik", a, w)
            a += b
            rows_inner = wide
        forwards = a[:, :n, 0]  # the output layer is width-1
        total = forwards[0].copy()
        for f in forwards[1:]:
            total += f
        return forwards, total / len(forwards)

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """Query rows, checked once: fitted, float, ``(n, d)``."""
        if not self.is_fitted:
            raise TrainingError("ensemble used before fit()")
        x = np.asarray(x, dtype=float)
        return x[None, :] if x.ndim == 1 else x

    def _predict_rows(self, x: np.ndarray, spread: bool):
        """The one predict path, on rows :meth:`_rows` has checked: the
        member mean in original target units (AOPS) — with ``spread``,
        ``(mean, std)``, both from one walk over the members.  The
        public predicts and the surrogate's queries all run it.

        The mean is mapped back with
        :meth:`StandardScaler.inverse_transform`'s elementwise ops,
        ``mean * scale + mean_``.
        """
        forwards, mean = self._member_mean(x)
        y_scale = self.y_scaler.scale_[0]
        out = mean * y_scale + self.y_scaler.mean_[0]
        if not spread:
            return out
        sq = np.zeros_like(mean)
        for f in forwards:
            sq += (f - mean) ** 2
        return out, np.sqrt(sq / len(forwards)) * y_scale

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble-mean prediction in original target units (AOPS)."""
        out = self._predict_rows(self._rows(x), spread=False)
        return float(out[0]) if np.ndim(x) == 1 else out

    def predict_std(self, x: np.ndarray) -> np.ndarray:
        """Across-member prediction spread (a cheap uncertainty proxy)."""
        return self._predict_rows(self._rows(x), spread=True)[1]

    def predict_mean_std(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mean and spread from a single walk over the member networks.

        ``predict`` followed by ``predict_std`` runs every member twice
        on the same rows; uncertainty-penalized search needs both, so
        this returns ``(mean, std)`` — both ``(n,)``, original target
        units — from one set of forward passes.
        """
        return self._predict_rows(self._rows(x), spread=True)
