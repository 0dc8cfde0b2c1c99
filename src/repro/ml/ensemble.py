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
        #: Derived ``(sources, plan)``; see :meth:`_plan`.
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
        # The plan is derived from the member and scaler arrays: it
        # stays out of pickles (state blobs, fingerprints) and is rebuilt
        # on the first query after a load.
        state = self.__dict__.copy()
        del state["_stacked"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._stacked = None

    def _plan(self):
        """The forward's plan, rebuilt whenever a member or scaler array
        changed: per layer ``(subscripts, weights, biases, wide, flip)`` —
        a wide layer's (``fan_in > 1 and fan_out > 1``) stacked
        ``(M, fan_out, fan_in)`` and ``(M, fan_out, 1)``, a width-1
        layer's ``(M, fan_in, fan_out)`` and ``(M, 1, fan_out)``, ``flip``
        where its input comes in the other layout — then the scalers'
        vectors as they are read.

        Callers rebind arrays (``set_weights``, a loaded ``networks``
        list, ``net.weights[0] = ...``, a refitted scaler), so every query
        compares each source array by identity.  Arrays are values:
        replace them, never write into them.
        """
        x_scaler, y_scaler = self.x_scaler, self.y_scaler
        sources = [x_scaler.mean_, x_scaler.scale_, y_scaler.mean_, y_scaler.scale_]
        for net in self.networks:
            sources += net.weights
            sources += net.biases
        cached = self._stacked
        if (
            cached is not None
            and len(cached[0]) == len(sources)
            and all(map(operator.is_, cached[0], sources))
        ):
            return cached[1]
        sizes = self.networks[0].layer_sizes
        if sizes[-1] != 1 or any(net.layer_sizes != sizes for net in self.networks):
            raise TrainingError(
                "ensemble members must share one single-output topology"
            )
        layers, rows_inner = [], False
        for i in range(len(sizes) - 1):
            w = np.stack([net.weights[i] for net in self.networks])
            b = np.stack([net.biases[i] for net in self.networks])
            wide = sizes[i] > 1 and sizes[i + 1] > 1
            if wide:
                w = np.ascontiguousarray(w.transpose(0, 2, 1))
                b = np.ascontiguousarray(b[:, :, None])
                subscripts = "mkj,mji->mki" if i else "mkj,ji->mki"
            else:
                b = b[:, None, :]
                subscripts = "mij,mjk->mik" if i else "ij,mjk->mik"
            layers.append((subscripts, w, b, wide, i > 0 and wide != rows_inner))
            rows_inner = wide
        mean, scale = x_scaler.mean_, x_scaler.scale_
        if layers[0][3]:
            mean, scale = mean[:, None], scale[:, None]
        plan = (layers, mean, scale, y_scaler.mean_[0], y_scaler.scale_[0])
        self._stacked = (sources, plan)
        return plan

    def _forward(self, x: np.ndarray, spread: bool):
        """The one forward: raw query rows ``(n, d)`` (or one row
        ``(d,)``), checked here once, to the member mean in target units
        (AOPS) — with ``spread``, ``(mean, std)`` from the same walk.

        Standardization (``(x - mean) / scale``) and its inverse
        (``mean * scale + mean_``) are :class:`StandardScaler`'s
        elementwise ops, inline.  Each layer is one ``einsum`` over the
        whole ensemble; ``einsum`` (not BLAS ``@``) keeps every row
        bit-identical alone or in a batch, and member ``m`` bit-identical
        to ``networks[m].forward_rows``.  A wide layer runs
        rows-innermost, activations ``(M, width, n)``: the same
        multiply-add chain as ``forward_rows`` while there is a row axis
        to walk, so a one-row query is scored as two copies of its row.
        A width-1 layer's dot kernel follows its operands' strides, so it
        keeps the ``(M, n, fan_in)`` C layout.  ``tanh(order="C")``
        writes each activation in the layout the next layer reads.  The
        members accumulate sequentially, elementwise: row-stable, unlike
        an ``np.mean`` axis reduction.
        """
        if not self.networks:
            raise TrainingError("ensemble used before fit()")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        layers, x_mean, x_scale, y_mean, y_scale = self._plan()
        if x.ndim != 2 or x.shape[1] != len(x_mean):
            raise TrainingError(
                f"expected query rows of {len(x_mean)} features, got shape {x.shape}"
            )
        n = len(x)
        if n == 1:  # keep a row axis for the wide layers to walk
            x = np.concatenate((x, x))
        if layers[0][3]:  # a wide first layer reads (d, n)
            a = np.subtract(x.T, x_mean, out=np.empty(x.shape[::-1]))
            a /= x_scale
        else:
            a = (x - x_mean) / x_scale
        for layer, (subscripts, w, b, wide, flip) in enumerate(layers):
            if layer:
                a = np.tanh(a.transpose(0, 2, 1) if flip else a, order="C")
            a = np.einsum(subscripts, w, a) if wide else np.einsum(subscripts, a, w)
            a += b
        forwards = a[:, :n, 0]  # the output layer is width-1
        total = forwards[0].copy()
        for f in forwards[1:]:
            total += f
        mean = total / len(forwards)
        out = mean * y_scale + y_mean
        if not spread:
            return out
        sq = np.zeros_like(mean)
        for f in forwards:
            sq += (f - mean) ** 2
        return out, np.sqrt(sq / len(forwards)) * y_scale

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble-mean prediction in original target units (AOPS)."""
        out = self._forward(x, spread=False)
        return float(out[0]) if np.ndim(x) == 1 else out

    def predict_std(self, x: np.ndarray) -> np.ndarray:
        """Across-member prediction spread (a cheap uncertainty proxy)."""
        return self._forward(x, spread=True)[1]

    def predict_mean_std(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mean and spread from a single walk over the member networks.

        ``predict`` followed by ``predict_std`` runs every member twice
        on the same rows; uncertainty-penalized search needs both, so
        this returns ``(mean, std)`` — both ``(n,)``, original target
        units — from one set of forward passes.
        """
        return self._forward(x, spread=True)
