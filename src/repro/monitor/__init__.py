"""Resource monitoring -- the Network Weather Service substitute.

The paper obtains current system state at runtime from NWS, which (a)
periodically measures the fraction of CPU available, free memory and
end-to-end TCP bandwidth on every node, (b) *forecasts* the performance
deliverable over the next interval from the measurement history, and (c)
costs about 0.5 s per node to probe and convert into a relative capacity
(section 6.1.4).

This package reproduces that contract against the simulated cluster:

- :mod:`repro.monitor.service` -- :class:`ResourceMonitor`, the facade the
  runtime queries: one sweep reads each resource as one column across all
  nodes (optionally with relative measurement noise), carries a failed
  node's last reading forward, and returns a snapshot plus the probe
  overhead the caller must charge to simulated time;
- :mod:`repro.monitor.forecasting` -- the NWS-style forecaster suite
  (last-value, sliding mean/median, AR(1), and the adaptive ensemble that
  tracks whichever predictor has been most accurate), fed one snapshot
  value at a time by whoever wants predictions instead of readings.
"""

from repro.monitor.forecasting import (
    AdaptiveEnsembleForecaster,
    ARForecaster,
    Forecaster,
    LastValueForecaster,
    SlidingMeanForecaster,
    SlidingMedianForecaster,
    make_forecaster,
)
from repro.monitor.service import MonitorSnapshot, ResourceMonitor

__all__ = [
    "Forecaster",
    "LastValueForecaster",
    "SlidingMeanForecaster",
    "SlidingMedianForecaster",
    "ARForecaster",
    "AdaptiveEnsembleForecaster",
    "make_forecaster",
    "MonitorSnapshot",
    "ResourceMonitor",
]
