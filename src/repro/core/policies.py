"""Decision policies for the online control loop.

Each of the paper's decision modes (``"oracle" | "reactive" |
"forecast"``) is a :class:`DecisionPolicy` strategy object, and the
change-threshold logic is a *composable* wrapper
(:class:`HysteresisPolicy`) rather than loop-internal state — so new
policies (cost-aware, SLA-aware, multi-metric) plug in without touching
the control loop.

A policy answers one question per window: *which read ratio should the
controller hand to Rafiki's search, if any?*  Returning ``None`` means
"keep the current configuration" (no information yet, change too small,
or still cooling down).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SearchError
from repro.workload.forecast import MarkovRegimeForecaster


@dataclass(frozen=True)
class WindowObservation:
    """What the controller knows when deciding for one window."""

    index: int
    read_ratio: float                       # current window's observed RR
    previous_read_ratio: Optional[float]    # None in the very first window


class DecisionPolicy:
    """Strategy interface: pick the RR to tune for, or ``None`` to hold.

    ``proactive`` policies decide at the window boundary (the
    reconfiguration overlaps idle time); reactive ones decide inside the
    window and pay the reconfiguration penalty.
    """

    name = "base"
    proactive = False

    def decide(self, window: WindowObservation) -> Optional[float]:
        """The RR the controller should believe for this window."""
        raise NotImplementedError

    def observe(self, read_ratio: float) -> None:
        """Feed the window's actual RR after it completes."""

    def reset(self) -> None:
        """Forget per-run state (called between controller runs)."""


class OraclePolicy(DecisionPolicy):
    """The paper's setting: the current window's RR is known up front
    (RR is stationary within a window, so a few minutes of observation
    plus a seconds-fast search approximate an oracle)."""

    name = "oracle"

    def decide(self, window: WindowObservation) -> Optional[float]:
        return window.read_ratio


class ReactivePolicy(DecisionPolicy):
    """Pure measurement lag: tune for the previous window's RR.

    The very first window returns ``None`` — there is no information
    yet, so the controller keeps the default configuration."""

    name = "reactive"

    def decide(self, window: WindowObservation) -> Optional[float]:
        return window.previous_read_ratio


class ForecastPolicy(DecisionPolicy):
    """Proactive tuning from a one-step-ahead RR forecast (§6).

    The forecaster is a fresh :class:`MarkovRegimeForecaster`.  Cold
    start: until it has seen at least one observation, ``decide``
    returns ``None`` — predicting from an unfitted forecaster would just
    emit its prior (0.5) and trigger a reconfiguration based on no data,
    the same first-window blindness reactive mode already acknowledges.
    """

    name = "forecast"
    proactive = True

    def __init__(self):
        self.forecaster = MarkovRegimeForecaster()
        self._observations = 0

    def decide(self, window: WindowObservation) -> Optional[float]:
        if self._observations == 0:
            return None
        return float(np.clip(self.forecaster.predict(), 0.0, 1.0))

    def observe(self, read_ratio: float) -> None:
        self.forecaster.update(read_ratio)
        self._observations += 1


class HysteresisPolicy(DecisionPolicy):
    """Composable damper around any inner policy.

    Passes the inner decision through only when it moved at least
    ``min_change`` away from the last *acted-on* decision (hysteresis) —
    reconfigurations cost downtime, so chattering around a regime
    boundary must not translate into reconfiguration storms.
    """

    def __init__(self, inner: DecisionPolicy, min_change: float = 0.08):
        # ``not 0 <= x < inf``, not ``x < 0``: a NaN threshold fails
        # every later compare and would switch the damper off silently.
        if not 0.0 <= min_change < math.inf:
            raise SearchError(f"min_change must be finite and >= 0, got {min_change!r}")
        self.inner = inner
        self.min_change = min_change
        self._last_rr: Optional[float] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def proactive(self) -> bool:  # type: ignore[override]
        return self.inner.proactive

    def decide(self, window: WindowObservation) -> Optional[float]:
        raw = self.inner.decide(window)
        if raw is None:
            return None
        if self._last_rr is not None and abs(raw - self._last_rr) < self.min_change:
            return None
        self._last_rr = raw
        return raw

    def observe(self, read_ratio: float) -> None:
        self.inner.observe(read_ratio)

    def reset(self) -> None:
        self._last_rr = None
        self.inner.reset()


#: The paper's decision modes by name, mapped by :func:`make_policy`.
DECISION_MODES = ("oracle", "reactive", "forecast")


def make_policy(mode: str) -> DecisionPolicy:
    """The CLI's string -> policy map (``replay --mode``)."""
    if mode == "oracle":
        return OraclePolicy()
    if mode == "reactive":
        return ReactivePolicy()
    if mode == "forecast":
        return ForecastPolicy()
    raise SearchError(f"unknown decision mode {mode!r}")
