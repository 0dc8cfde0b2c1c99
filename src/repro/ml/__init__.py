"""From-scratch neural-network machinery for the surrogate model.

The paper trains a [6, 14, 4, 1] feed-forward network with MATLAB's
``trainbr`` (Levenberg-Marquardt + MacKay Bayesian regularization) and
averages an ensemble of 20 differently initialized networks after
pruning the worst 30 % by training error (§3.6.2, §4.3).  This package
implements that stack on numpy, plus the interpretable decision-tree
baseline the paper tried and rejected (§3.7.2).
"""

from repro.ml.scaler import StandardScaler
from repro.ml.network import FeedForwardNetwork
from repro.ml.train import TrainingResult, train_bayesian_lm
from repro.ml.ensemble import NetworkEnsemble, EnsembleConfig
from repro.ml.metrics import mean_absolute_percentage_error, r2_score, rmse
from repro.ml.decision_tree import DecisionTreeRegressor, ModelTreeRegressor

__all__ = [
    "StandardScaler",
    "FeedForwardNetwork",
    "TrainingResult",
    "train_bayesian_lm",
    "NetworkEnsemble",
    "EnsembleConfig",
    "mean_absolute_percentage_error",
    "r2_score",
    "rmse",
    "DecisionTreeRegressor",
    "ModelTreeRegressor",
]
