"""NWS-style forecasters.

NWS does not hand applications raw measurements: it runs a family of simple
predictors over each measurement series and reports the value of whichever
predictor has recently been most accurate.  This module implements that
design: four primitive forecasters plus :class:`AdaptiveEnsembleForecaster`,
which scores every member on one-step-ahead absolute error and answers with
the current best.

All forecasters share a two-method interface: ``update(value)`` appends a
measurement, ``forecast()`` predicts the next one.  ``forecast()`` on an
empty history raises :class:`~repro.util.errors.MonitorError` -- callers
must have probed at least once.  A forecaster that needs *more* history
than it has (but has at least one measurement) does not raise mid-run:
it degrades to the last observed value and emits a ``forecast.cold``
telemetry event, so a cold start shows up in the trace instead of
killing the loop.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

import numpy as np

from repro.learn.models import OnlineLinearModel
from repro.telemetry.spans import get_active_tracer
from repro.util.errors import MonitorError

__all__ = [
    "Forecaster",
    "LastValueForecaster",
    "SlidingMeanForecaster",
    "SlidingMedianForecaster",
    "ARForecaster",
    "AdaptiveEnsembleForecaster",
    "ModelBackedForecaster",
    "make_forecaster",
]


class Forecaster:
    """Abstract one-step-ahead predictor over a scalar measurement series."""

    def update(self, value: float) -> None:
        raise NotImplementedError

    def forecast(self) -> float:
        raise NotImplementedError

    def _require_history(self, n: int, have: int) -> None:
        if have < n:
            raise MonitorError(
                f"{type(self).__name__} needs >= {n} measurements, has {have}"
            )

    def _degrade_if_cold(self, n: int, buf: Sequence[float]) -> float | None:
        """Cold-start guard: ``None`` when history suffices.

        An empty series still raises (there is nothing to degrade to --
        the caller never probed); a series shorter than ``n`` degrades
        to the last observed value and stamps a ``forecast.cold`` event
        on the active tracer rather than raising mid-run.
        """
        have = len(buf)
        if have >= n:
            return None
        if have == 0:
            raise MonitorError(
                f"{type(self).__name__} has no measurements"
            )
        tracer = get_active_tracer()
        if tracer.enabled:
            tracer.event(
                "forecast.cold",
                forecaster=type(self).__name__,
                needs=n,
                have=have,
            )
        return float(buf[-1])


class LastValueForecaster(Forecaster):
    """Predicts the most recent measurement (NWS 'LAST' predictor)."""

    def __init__(self) -> None:
        self._last: float | None = None

    def update(self, value: float) -> None:
        self._last = float(value)

    def forecast(self) -> float:
        if self._last is None:
            raise MonitorError("LastValueForecaster has no measurements")
        return self._last


class SlidingMeanForecaster(Forecaster):
    """Mean of the last ``window`` measurements (NWS 'RUN_AVG'/'SW_AVG')."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise MonitorError(f"window must be >= 1, got {window}")
        self._buf: deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(float(value))

    def forecast(self) -> float:
        self._require_history(1, len(self._buf))
        return float(np.mean(self._buf))


class SlidingMedianForecaster(Forecaster):
    """Median of the last ``window`` measurements (NWS 'MEDIAN') --
    robust to the load spikes that wreck mean-based predictors."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise MonitorError(f"window must be >= 1, got {window}")
        self._buf: deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(float(value))

    def forecast(self) -> float:
        self._require_history(1, len(self._buf))
        return float(np.median(self._buf))


class ARForecaster(Forecaster):
    """AR(1) predictor fit over a sliding window.

    Predicts ``mean + rho * (last - mean)`` where ``rho`` is the lag-1
    autocorrelation of the window; degrades gracefully to the mean when the
    series is too short or constant.
    """

    def __init__(self, window: int = 20):
        if window < 3:
            raise MonitorError(f"AR window must be >= 3, got {window}")
        self._buf: deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(float(value))

    def forecast(self) -> float:
        self._require_history(1, len(self._buf))
        xs = np.asarray(self._buf)
        if len(xs) < 3:
            return float(xs.mean())
        mean = xs.mean()
        dev = xs - mean
        denom = float(dev[:-1] @ dev[:-1])
        if denom <= 1e-12:
            return float(mean)
        rho = float(dev[1:] @ dev[:-1]) / denom
        rho = float(np.clip(rho, -1.0, 1.0))
        return float(mean + rho * (xs[-1] - mean))


class AdaptiveEnsembleForecaster(Forecaster):
    """NWS's adaptive strategy: run every primitive, track one-step-ahead
    mean absolute error, answer with the current champion's forecast."""

    def __init__(self, members: list[Forecaster] | None = None):
        if members is None:
            members = [
                LastValueForecaster(),
                SlidingMeanForecaster(10),
                SlidingMedianForecaster(10),
                ARForecaster(20),
            ]
        if not members:
            raise MonitorError("ensemble needs at least one member")
        self.members = members
        self._errors = [0.0] * len(self.members)
        self._counts = [0] * len(self.members)
        self._seen = 0

    def update(self, value: float) -> None:
        # Score each member's standing prediction against the new truth.
        if self._seen > 0:
            for i, m in enumerate(self.members):
                try:
                    pred = m.forecast()
                except MonitorError:
                    continue
                self._errors[i] += abs(pred - value)
                self._counts[i] += 1
        for m in self.members:
            m.update(value)
        self._seen += 1

    def forecast(self) -> float:
        if self._seen == 0:
            raise MonitorError("ensemble has no measurements")
        return self.members[self.best_member_index()].forecast()

    def best_member_index(self) -> int:
        """Index of the member with the lowest observed MAE (ties: first)."""
        best, best_mae = 0, float("inf")
        for i in range(len(self.members)):
            if self._counts[i] == 0:
                mae = float("inf")
            else:
                mae = self._errors[i] / self._counts[i]
            if mae < best_mae:
                best, best_mae = i, mae
        return best if best_mae < float("inf") else 0


class ModelBackedForecaster(Forecaster):
    """Windowed least-squares trend fit over the measurement series.

    Backed by :class:`~repro.learn.models.OnlineLinearModel`: the last
    ``window`` measurements are regressed against their sequence index
    and the forecast is the fitted line extrapolated one step ahead --
    the predictor that tracks ramps (a host steadily gaining or shedding
    load) the level-based NWS primitives lag behind.  With fewer than
    ``min_points`` measurements the fit is untrustworthy; the forecast
    degrades to the last value under a ``forecast.cold`` event instead
    of raising.
    """

    def __init__(self, window: int = 20, min_points: int = 4):
        if window < 3:
            raise MonitorError(
                f"model window must be >= 3, got {window}"
            )
        if min_points < 3:
            raise MonitorError(
                f"min_points must be >= 3, got {min_points}"
            )
        self.min_points = int(min_points)
        self._buf: deque[float] = deque(maxlen=window)
        self._seen = 0

    def update(self, value: float) -> None:
        self._buf.append(float(value))
        self._seen += 1

    def _fit(self) -> OnlineLinearModel:
        model = OnlineLinearModel(min_points=self.min_points)
        start = self._seen - len(self._buf)
        for i, value in enumerate(self._buf):
            model.observe(float(start + i), value)
        return model

    def forecast(self) -> float:
        cold = self._degrade_if_cold(self.min_points, self._buf)
        if cold is not None:
            return cold
        model = self._fit()
        if model.is_cold:  # degenerate x-spread cannot happen; paranoia
            return float(self._buf[-1])
        return float(model.predict(self._seen))


_FACTORIES: dict[str, Callable[[], Forecaster]] = {
    "last": LastValueForecaster,
    "mean": lambda: SlidingMeanForecaster(10),
    "median": lambda: SlidingMedianForecaster(10),
    "ar": lambda: ARForecaster(20),
    "adaptive": AdaptiveEnsembleForecaster,
    "model": ModelBackedForecaster,
}


def make_forecaster(kind: str) -> Forecaster:
    """Factory by name: last | mean | median | ar | adaptive | model."""
    try:
        return _FACTORIES[kind]()
    except KeyError:
        raise MonitorError(
            f"unknown forecaster {kind!r}; choose from {sorted(_FACTORIES)}"
        ) from None
