"""Experiment campaigns: declarative grids, resumable runs, HTTP serving.

The campaign subsystem turns one-off experiment scripts into a durable
service workflow:

- :mod:`repro.campaign.spec` -- the scenario × partitioner × seed ×
  config grid and its stable cell keys.
- :mod:`repro.campaign.state` -- the completed/failed-cell tally,
  derived from the result store and ``failures.jsonl``.
- :mod:`repro.campaign.store` -- the append-then-compact JSONL result
  store whose canonical form is byte-identical across worker counts and
  interruptions.
- :mod:`repro.campaign.orchestrator` -- the sharded (process-pool)
  runner with exact resume, per-cell artifact bundles and the
  cross-process ``events.jsonl`` progress log.
- :mod:`repro.campaign.serve` -- the ``repro serve`` HTTP layer with
  ETag/signature response caching, an OpenMetrics endpoint, per-cell
  artifact routes and a live SSE progress stream.
"""

from repro.campaign.orchestrator import (
    ORCHESTRATOR_TRACE_NAME,
    CampaignRunner,
    campaign_status,
    execute_cell,
)
from repro.campaign.serve import CampaignServer, make_server
from repro.campaign.spec import (
    SPEC_SCHEMA_VERSION,
    CampaignSpec,
    CellSpec,
    canonical_json,
)
from repro.campaign.state import CampaignState
from repro.campaign.store import ARTIFACTS_DIRNAME, ResultStore

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "ARTIFACTS_DIRNAME",
    "ORCHESTRATOR_TRACE_NAME",
    "CampaignSpec",
    "CellSpec",
    "canonical_json",
    "CampaignState",
    "ResultStore",
    "CampaignRunner",
    "campaign_status",
    "execute_cell",
    "CampaignServer",
    "make_server",
]
