"""Least-squares cost/capacity models fitted from execution history.

The monitor's forecasters (:mod:`repro.monitor.forecasting`) answer "what
will the *next measurement* be"; the models here answer the questions the
adaptive policies need priced:

- :class:`OnlineLinearModel` -- streaming ordinary least squares over
  ``y = intercept + slope * x`` with exact sufficient statistics and
  closed-form confidence intervals.  Every other model composes it.
- :class:`OnlineMeanModel` -- streaming mean/variance with a CI, for
  quantities with no useful regressor (migration cost per repartition,
  probe overhead per sweep).
- :class:`AmdahlCostModel` -- the per-phase, per-node execution model
  ``t(w, n) = serial(n) + w / capacity(n)``: one linear fit per node of
  phase time against work, whose slope is the node's inverse effective
  capacity and whose intercept is the phase's serial floor.
- :class:`TransientCapacityModel` -- per-node capacity *trend* over a
  sliding window of sensed relative capacities: instead of reacting to a
  load transient after it lands, predict where each node's capacity is
  heading and how fast the capacity vector is drifting.

Every model distinguishes **cold** from **fitted**: a cold model has too
few points (or a degenerate regressor) for its closed-form intervals to
mean anything, and callers are expected to fall back to the paper's
fixed-cadence behavior (see :mod:`repro.learn.policy`).  All models
update online -- one ``observe`` per event, O(1) or O(window) -- and
serialize losslessly (sufficient statistics are plain floats, which
round-trip exactly through JSON), so a model refit from its own
serialized form answers identically.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.util.errors import ExperimentError

__all__ = [
    "OnlineLinearModel",
    "OnlineMeanModel",
    "AmdahlCostModel",
    "TransientCapacityModel",
]

#: Two-sided normal quantile for the default 95 % confidence level.  The
#: closed-form intervals use the normal approximation above
#: ``_T_TABLE``'s range and a small-sample t table below it -- scipy is
#: available but a table keeps the module import-light and the values
#: bit-stable across scipy versions.
_Z95 = 1.959963984540054

#: Two-sided 95 % t quantiles for 1..30 degrees of freedom.
_T_TABLE = (
    12.706204736432095, 4.302652729911275, 3.1824463052842638,
    2.7764451051977987, 2.5705818366147395, 2.4469118511449666,
    2.3646242510102993, 2.3060041350333704, 2.2621571627409915,
    2.2281388519649385, 2.200985160082949, 2.1788128296634177,
    2.160368656461013, 2.1447866879169273, 2.131449545559323,
    2.1199052992210112, 2.1098155778331806, 2.100922040241039,
    2.0930240544082634, 2.0859634472658364, 2.0796138447276626,
    2.073873067904019, 2.0686576104190406, 2.0638985616280205,
    2.059538552753294, 2.055529438642871, 2.0518305164802833,
    2.048407141795244, 2.0452296421327034, 2.042272456301238,
)


def _t95(dof: int) -> float:
    """Two-sided 95 % t quantile (normal approximation for dof > 30)."""
    if dof < 1:
        return math.inf
    if dof <= len(_T_TABLE):
        return _T_TABLE[dof - 1]
    return _Z95


class OnlineLinearModel:
    """Streaming OLS fit of ``y = intercept + slope * x``.

    Maintains exact sufficient statistics (n, Σx, Σy, Σx², Σxy, Σy²), so
    fit parameters, predictions and confidence intervals are all closed
    form and the model is O(1) per observation.  ``min_points`` governs
    the cold/fitted boundary: below it (or with a degenerate regressor)
    :attr:`is_cold` is true and predictions fall back to the running mean
    of ``y`` with an infinite interval.
    """

    def __init__(self, min_points: int = 4):
        if min_points < 3:
            raise ExperimentError(
                f"linear model needs min_points >= 3, got {min_points}"
            )
        self.min_points = int(min_points)
        self.n = 0
        self.sx = 0.0
        self.sy = 0.0
        self.sxx = 0.0
        self.sxy = 0.0
        self.syy = 0.0

    # -- ingest --------------------------------------------------------
    def observe(self, x: float, y: float) -> None:
        x = float(x)
        y = float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            return  # a broken measurement must not poison the fit
        self.n += 1
        self.sx += x
        self.sy += y
        self.sxx += x * x
        self.sxy += x * y
        self.syy += y * y

    # -- fit state -----------------------------------------------------
    @property
    def _sxx_centered(self) -> float:
        if self.n == 0:
            return 0.0
        return self.sxx - self.sx * self.sx / self.n

    @property
    def is_cold(self) -> bool:
        """Too few points, or no spread in x, for the fit to be trusted."""
        if self.n < self.min_points:
            return True
        return self._sxx_centered <= 1e-12 * max(1.0, self.sxx)

    @property
    def slope(self) -> float:
        sxx = self._sxx_centered
        if self.n < 2 or sxx <= 0.0:
            return 0.0
        return (self.sxy - self.sx * self.sy / self.n) / sxx

    @property
    def intercept(self) -> float:
        if self.n == 0:
            return 0.0
        return (self.sy - self.slope * self.sx) / self.n

    def residual_variance(self) -> float:
        """Unbiased variance of the fit residuals (dof = n - 2)."""
        if self.n < 3:
            return math.inf
        syy_c = self.syy - self.sy * self.sy / self.n
        sxx_c = self._sxx_centered
        sxy_c = self.sxy - self.sx * self.sy / self.n
        if sxx_c <= 0.0:
            return math.inf
        ss_res = max(syy_c - sxy_c * sxy_c / sxx_c, 0.0)
        return ss_res / (self.n - 2)

    # -- inference -----------------------------------------------------
    def predict(self, x: float) -> float:
        """Mean response at ``x`` (running y-mean while cold)."""
        if self.is_cold:
            return self.sy / self.n if self.n else 0.0
        return self.intercept + self.slope * float(x)

    def prediction_interval(self, x: float) -> tuple[float, float]:
        """95 % interval for one *new observation* at ``x``.

        Wider than :meth:`predict_interval` by the residual-variance
        term: the mean-response CI shrinks with n, but an individual
        outcome keeps its noise floor.  This is the interval whose
        coverage the decision-ledger calibration scores -- a
        well-calibrated model contains the truth ~95% of the time.
        """
        if self.is_cold:
            return (-math.inf, math.inf)
        x = float(x)
        var = self.residual_variance()
        sxx_c = self._sxx_centered
        mean_x = self.sx / self.n
        se = math.sqrt(
            var * (1.0 + 1.0 / self.n + (x - mean_x) ** 2 / sxx_c)
        )
        yhat = self.predict(x)
        half = _t95(self.n - 2) * se
        return (yhat - half, yhat + half)

    def slope_interval(self) -> tuple[float, float]:
        """95 % CI of the slope (closed form)."""
        if self.is_cold:
            return (-math.inf, math.inf)
        se = math.sqrt(self.residual_variance() / self._sxx_centered)
        half = _t95(self.n - 2) * se
        return (self.slope - half, self.slope + half)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": "linear",
            "min_points": self.min_points,
            "n": self.n,
            "sx": self.sx,
            "sy": self.sy,
            "sxx": self.sxx,
            "sxy": self.sxy,
            "syy": self.syy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineLinearModel":
        model = cls(min_points=int(data.get("min_points", 4)))
        model.n = int(data["n"])
        model.sx = float(data["sx"])
        model.sy = float(data["sy"])
        model.sxx = float(data["sxx"])
        model.sxy = float(data["sxy"])
        model.syy = float(data["syy"])
        return model


class OnlineMeanModel:
    """Streaming mean/variance with a closed-form 95 % CI of the mean."""

    def __init__(self, min_points: int = 3):
        if min_points < 2:
            raise ExperimentError(
                f"mean model needs min_points >= 2, got {min_points}"
            )
        self.min_points = int(min_points)
        self.n = 0
        self.s = 0.0
        self.ss = 0.0

    def observe(self, y: float) -> None:
        y = float(y)
        if not math.isfinite(y):
            return
        self.n += 1
        self.s += y
        self.ss += y * y

    @property
    def is_cold(self) -> bool:
        return self.n < self.min_points

    @property
    def mean(self) -> float:
        return self.s / self.n if self.n else 0.0

    def variance(self) -> float:
        if self.n < 2:
            return math.inf
        return max(self.ss - self.s * self.s / self.n, 0.0) / (self.n - 1)

    def interval(self) -> tuple[float, float]:
        if self.is_cold:
            return (-math.inf, math.inf)
        half = _t95(self.n - 1) * math.sqrt(self.variance() / self.n)
        return (self.mean - half, self.mean + half)

    def to_dict(self) -> dict:
        return {
            "kind": "mean",
            "min_points": self.min_points,
            "n": self.n,
            "s": self.s,
            "ss": self.ss,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineMeanModel":
        model = cls(min_points=int(data.get("min_points", 3)))
        model.n = int(data["n"])
        model.s = float(data["s"])
        model.ss = float(data["ss"])
        return model


class AmdahlCostModel:
    """Per-phase execution model ``t(w, n) = serial(n) + w / capacity(n)``.

    One :class:`OnlineLinearModel` per node regresses the phase's
    duration on the work units it processed; the fitted slope is the
    node's inverse effective capacity for this phase (seconds per work
    unit) and the intercept its Amdahl serial floor.  The model is the
    ARBO estimator pattern: fit from history, predict deliverable time
    per configuration, update online after every run.
    """

    def __init__(self, phase: str = "iteration", min_points: int = 4):
        self.phase = str(phase)
        self.min_points = int(min_points)
        self._nodes: dict[int, OnlineLinearModel] = {}

    def _node(self, node: int) -> OnlineLinearModel:
        model = self._nodes.get(int(node))
        if model is None:
            model = OnlineLinearModel(min_points=self.min_points)
            self._nodes[int(node)] = model
        return model

    def observe(self, node: int, work: float, seconds: float) -> None:
        self._node(node).observe(work, seconds)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self._nodes))

    def is_cold(self, node: int | None = None) -> bool:
        """Whether ``node`` (or, with ``None``, every node) is unfitted."""
        if node is not None:
            model = self._nodes.get(int(node))
            return model is None or model.is_cold
        if not self._nodes:
            return True
        return any(m.is_cold for m in self._nodes.values())

    def predict(self, node: int, work: float) -> float:
        return self._node(node).predict(work)

    def capacity(self, node: int) -> float:
        """Fitted work units per second on ``node`` (inf if free)."""
        slope = self._node(node).slope
        return 1.0 / slope if slope > 0.0 else math.inf

    def to_dict(self) -> dict:
        return {
            "kind": "amdahl",
            "phase": self.phase,
            "min_points": self.min_points,
            "nodes": {
                str(node): model.to_dict()
                for node, model in sorted(self._nodes.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AmdahlCostModel":
        model = cls(
            phase=str(data.get("phase", "iteration")),
            min_points=int(data.get("min_points", 4)),
        )
        for node, sub in data.get("nodes", {}).items():
            model._nodes[int(node)] = OnlineLinearModel.from_dict(sub)
        return model


class TransientCapacityModel:
    """Capacity *trend* per node over a sliding window of sensings.

    Each :meth:`observe` appends one sensed relative-capacity vector at a
    simulated time; the model fits, per node, a least-squares line
    through the window and exposes:

    - :meth:`predict` -- the capacity vector extrapolated to a future
      time, clipped to a small floor and renormalized (relative
      capacities stay a distribution);
    - :meth:`drift_rate` -- the largest per-node absolute capacity slope
      (fraction per simulated second), the signal the adaptive sensing
      policy converts into an interval;
    - :meth:`slope_interval` -- closed-form 95 % CI of one node's slope,
      so callers can tell a real transient from fit noise.

    A window shorter than ``min_points`` (or with no time spread) leaves
    the model cold; :meth:`predict` then degrades to the last observed
    vector, which is exactly the paper's react-to-last-probe behavior.
    """

    def __init__(
        self,
        num_nodes: int,
        window: int = 12,
        min_points: int = 4,
        floor: float = 1e-3,
    ):
        if num_nodes < 1:
            raise ExperimentError(f"num_nodes must be >= 1, got {num_nodes}")
        if window < 2:
            raise ExperimentError(f"window must be >= 2, got {window}")
        if min_points < 3:
            raise ExperimentError(
                f"min_points must be >= 3, got {min_points}"
            )
        self.num_nodes = int(num_nodes)
        self.window = int(window)
        self.min_points = int(min_points)
        self.floor = float(floor)
        self._times: deque[float] = deque(maxlen=self.window)
        self._caps: deque[tuple[float, ...]] = deque(maxlen=self.window)

    def observe(self, t: float, capacities) -> None:
        caps = np.asarray(capacities, dtype=float)
        if caps.shape != (self.num_nodes,):
            raise ExperimentError(
                f"capacity vector has shape {caps.shape}, expected "
                f"({self.num_nodes},)"
            )
        if not (math.isfinite(float(t)) and np.isfinite(caps).all()):
            return
        self._times.append(float(t))
        self._caps.append(tuple(float(c) for c in caps))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def is_cold(self) -> bool:
        if len(self._times) < self.min_points:
            return True
        ts = np.asarray(self._times)
        return float(ts.max() - ts.min()) <= 0.0

    def _fit(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(slopes, intercepts, t_mean) of the per-node window fits."""
        ts = np.asarray(self._times)
        caps = np.asarray(self._caps)
        t_mean = float(ts.mean())
        dev = ts - t_mean
        denom = float(dev @ dev)
        if denom <= 0.0:
            return (
                np.zeros(self.num_nodes),
                caps.mean(axis=0),
                t_mean,
            )
        slopes = dev @ (caps - caps.mean(axis=0)) / denom
        intercepts = caps.mean(axis=0)
        return slopes, intercepts, t_mean

    def last(self) -> np.ndarray | None:
        """Most recently observed capacity vector (None before any)."""
        if not self._caps:
            return None
        return np.asarray(self._caps[-1])

    def predict(self, t: float) -> np.ndarray | None:
        """Capacity vector extrapolated to time ``t`` (last vector while
        cold; ``None`` before any observation)."""
        if not self._caps:
            return None
        if self.is_cold:
            return self.last()
        slopes, intercepts, t_mean = self._fit()
        caps = intercepts + slopes * (float(t) - t_mean)
        caps = np.maximum(caps, self.floor)
        total = caps.sum()
        return caps / total if total > 0 else self.last()

    def drift_rate(self) -> float:
        """Largest per-node |capacity slope| (fraction per sim second)."""
        if self.is_cold:
            return 0.0
        slopes, _, _ = self._fit()
        return float(np.abs(slopes).max())

    def slope_interval(self, node: int) -> tuple[float, float]:
        """95 % CI of one node's capacity slope (closed form)."""
        if not 0 <= node < self.num_nodes:
            raise ExperimentError(f"unknown node index {node}")
        if self.is_cold:
            return (-math.inf, math.inf)
        ts = np.asarray(self._times)
        caps = np.asarray(self._caps)[:, node]
        n = len(ts)
        if n < 3:
            return (-math.inf, math.inf)
        dev = ts - ts.mean()
        sxx = float(dev @ dev)
        slope = float(dev @ (caps - caps.mean())) / sxx
        resid = caps - caps.mean() - slope * dev
        var = float(resid @ resid) / (n - 2)
        se = math.sqrt(var / sxx)
        half = _t95(n - 2) * se
        return (slope - half, slope + half)

    def to_dict(self) -> dict:
        return {
            "kind": "transient",
            "num_nodes": self.num_nodes,
            "window": self.window,
            "min_points": self.min_points,
            "floor": self.floor,
            "times": list(self._times),
            "caps": [list(row) for row in self._caps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TransientCapacityModel":
        model = cls(
            num_nodes=int(data["num_nodes"]),
            window=int(data.get("window", 12)),
            min_points=int(data.get("min_points", 4)),
            floor=float(data.get("floor", 1e-3)),
        )
        for t, caps in zip(data.get("times", ()), data.get("caps", ())):
            model._times.append(float(t))
            model._caps.append(tuple(float(c) for c in caps))
        return model
