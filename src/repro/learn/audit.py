"""Decision provenance: durable ledger + reconciliation for the learner.

PR 9 made the runtime's adaptivity learned; this module makes it
*auditable*.  Every adaptive decision -- an
:class:`~repro.learn.policy.AdaptiveSensingPolicy` interval choice, a
:class:`~repro.learn.policy.RepartitionGate` accept/skip, a transient
capacity forecast, a recovery repartition -- is recorded to a durable
JSONL ledger (:class:`DecisionLedger`, same fsync/torn-tail machinery
as the execution-history store) together with its inputs, a
digest of the model state that produced it, and the prediction with its
closed-form CI.  Measured outcomes land in the same ledger, so the
predict->measure loop closes offline from the ledger alone:

- :func:`replay_decision` re-runs the gate from recorded inputs and
  must reproduce the recorded decision **bit-exactly** -- the ledger is
  a complete causal account, not a summary;
- :func:`calibration` scores the one-step-ahead iteration-cost
  predictions: did the 95% CI contain the truth ~95% of the time?
- :func:`oracle_replay` re-prices every gate decision with *hindsight*
  costs (beta refit on all measured (bottleneck, seconds) pairs, the
  measured mean migration cost) and charges cumulative regret for every
  decision the oracle would have made differently.

Non-finite floats are serialized as explicit ``"inf"``/``"-inf"``/
``"nan"`` sentinels (:func:`encode_float`/:func:`decode_float`) so a
cold gate's infinite payoff survives the JSON round trip instead of
being dropped.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.learn.durable import DurableJsonlStore
from repro.learn.models import OnlineLinearModel, OnlineMeanModel
from repro.util.errors import ExperimentError

__all__ = [
    "DecisionLedger",
    "LEDGER_NAME",
    "encode_float",
    "decode_float",
    "load_ledger_rows",
    "replay_decision",
    "verify_decision",
    "calibration",
    "oracle_replay",
    "reconcile",
]

#: Ledger append-log file name inside a ledger directory.
LEDGER_NAME = "decisions.jsonl"

#: The record kinds a ledger may hold.  ``gate``/``sense_interval``/
#: ``forecast``/``recover`` are decisions; ``prediction`` is the
#: one-step-ahead iteration-cost prediction captured *before* the
#: measured point folds into the model (honest out-of-sample CI
#: coverage); ``outcome`` rows are measured ground truth (migrations,
#: probe sweeps) the reconciler joins against.
RECORD_KINDS = (
    "gate",
    "sense_interval",
    "forecast",
    "recover",
    "prediction",
    "outcome",
)

#: Fraction of truths a well-calibrated 95% CI should contain.
CI_TARGET = 0.95


# -- non-finite-safe float round trip ----------------------------------
def encode_float(value: float | None) -> float | str | None:
    """JSON-safe float: non-finite values become explicit sentinels."""
    if value is None:
        return None
    v = float(value)
    if math.isfinite(v):
        return v
    if math.isnan(v):
        return "nan"
    return "inf" if v > 0 else "-inf"


def decode_float(value: Any) -> float | None:
    """Inverse of :func:`encode_float`."""
    if value is None:
        return None
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        if value == "nan":
            return math.nan
        raise ExperimentError(f"unknown float sentinel {value!r}")
    return float(value)


def _encode_value(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return encode_float(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return encode_float(float(value))
    return value


class DecisionLedger(DurableJsonlStore):
    """Durable append-only ledger of adaptive-runtime decisions.

    Rides :class:`~repro.learn.durable.DurableJsonlStore`: every append
    is fsynced before the call returns and a torn tail is skipped on
    load and terminated by the next append.  Rows are flat dicts
    with a ``kind`` discriminator and a monotonically increasing
    ``seq`` -- the decision id :func:`replay_decision` and the
    ``repro explain --decision`` CLI address.
    """

    DATA_NAME = LEDGER_NAME
    REQUIRED_KEY = "kind"

    def record(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Durably append one record; returns the stored row."""
        if kind not in RECORD_KINDS:
            raise ExperimentError(
                f"unknown decision-record kind {kind!r}; "
                f"expected one of {RECORD_KINDS}"
            )
        row = {"seq": len(self._rows), "kind": str(kind)}
        for key, value in fields.items():
            row[str(key)] = _encode_value(value)
        return self._append_row(row)

    def rows(self, kind: str | None = None) -> list[dict[str, Any]]:
        if kind is None:
            return list(self._rows)
        return [r for r in self._rows if r.get("kind") == kind]

    def get(self, seq: int) -> dict[str, Any]:
        for row in self._rows:
            if int(row.get("seq", -1)) == int(seq):
                return row
        raise ExperimentError(
            f"no decision record with seq {seq} "
            f"(ledger holds {len(self._rows)} records)"
        )


def load_ledger_rows(path: str | Path) -> list[dict[str, Any]]:
    """Load ledger rows from a directory or a ``decisions.jsonl`` path."""
    p = Path(path)
    if p.is_file():
        p = p.parent
    if not (p / LEDGER_NAME).is_file():
        raise ExperimentError(
            f"no decision ledger at {p} (expected {LEDGER_NAME})"
        )
    return DecisionLedger(p).rows()


# -- bit-exact decision replay -----------------------------------------
#: GateDecision fields compared by :func:`verify_decision`.
_DECISION_FIELDS = (
    "repartition",
    "reason",
    "payoff_seconds",
    "cost_seconds",
    "horizon_iters",
)


def replay_decision(record: dict[str, Any]):
    """Re-run the gate from a recorded ``gate`` row's inputs.

    Returns the freshly computed
    :class:`~repro.learn.policy.GateDecision`.  Because the gate is a
    pure function of ``(loads, capacities, horizon, beta,
    migration_seconds, gate_safety)`` -- all recorded verbatim -- the
    replay must be bit-exact; any divergence means the ledger is not a
    complete causal account of the decision.
    """
    from repro.learn.policy import LearnConfig, RepartitionGate

    if record.get("kind") != "gate":
        raise ExperimentError(
            f"can only replay gate records, got kind "
            f"{record.get('kind')!r} (seq {record.get('seq')})"
        )
    gate = RepartitionGate(
        LearnConfig(gate_safety=float(record["gate_safety"]))
    )
    return gate.decide(
        loads=np.asarray(record["loads"], dtype=float),
        capacities=np.asarray(record["capacities"], dtype=float),
        horizon_iters=int(record["horizon_iters"]),
        beta=decode_float(record.get("beta")),
        migration_seconds=decode_float(record.get("migration_seconds")),
    )


def verify_decision(record: dict[str, Any]) -> dict[str, Any]:
    """Replay one gate record and diff it against what was recorded."""
    replayed = replay_decision(record)
    recorded = {
        "repartition": bool(record["repartition"]),
        "reason": str(record["reason"]),
        "payoff_seconds": decode_float(record["payoff_seconds"]),
        "cost_seconds": decode_float(record["cost_seconds"]),
        "horizon_iters": int(record["horizon_iters"]),
    }
    fresh = {
        name: getattr(replayed, name) for name in _DECISION_FIELDS
    }
    mismatches = [
        name
        for name in _DECISION_FIELDS
        # Bitwise: no tolerance.  `!=` is False for inf==inf and True
        # for any ULP of drift; NaN never appears in gate outputs.
        if recorded[name] != fresh[name]
    ]
    return {
        "seq": int(record["seq"]),
        "match": not mismatches,
        "mismatches": mismatches,
        "recorded": recorded,
        "replayed": fresh,
    }


# -- calibration -------------------------------------------------------
def calibration(rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """CI-coverage calibration of the one-step-ahead predictions.

    Each ``prediction`` row carries the model's point prediction and
    95% CI for the iteration cost, captured *before* the measured value
    folded into the model.  Coverage is the fraction of warm
    predictions whose CI contained the truth; a well-calibrated model
    sits near :data:`CI_TARGET`.  Cold predictions (infinite CI) are
    counted separately -- an infinite interval always "covers" and
    would flatter the score.
    """
    n = covered = cold = 0
    abs_err = signed_err = 0.0
    for row in rows:
        if row.get("kind") != "prediction":
            continue
        actual = decode_float(row["actual"])
        lo = decode_float(row["lo"])
        hi = decode_float(row["hi"])
        if lo is None or hi is None or not (
            math.isfinite(lo) and math.isfinite(hi)
        ):
            cold += 1
            continue
        predicted = decode_float(row["predicted"])
        n += 1
        if lo <= actual <= hi:
            covered += 1
        abs_err += abs(predicted - actual)
        signed_err += predicted - actual
    return {
        "predictions": n,
        "cold_predictions": cold,
        "covered": covered,
        "coverage": covered / n if n else None,
        "target": CI_TARGET,
        "mean_abs_error_seconds": abs_err / n if n else None,
        "mean_signed_error_seconds": signed_err / n if n else None,
    }


# -- regret vs the hindsight oracle ------------------------------------
def oracle_replay(rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Cumulative regret of the gate vs a hindsight oracle.

    The oracle re-prices every recorded gate decision with models fit
    on *all* measured outcomes in the ledger -- the beta slope refit
    over every (bottleneck work, iteration seconds) pair and the
    measured mean migration cost -- instead of the partial-information
    models the live gate had.  Each decision where the oracle's action
    differs is charged regret equal to the oracle's payoff/cost margin:
    the seconds the run left on the table by deciding early.
    """
    from repro.learn.policy import LearnConfig, RepartitionGate

    rows = list(rows)
    beta_model = OnlineLinearModel(min_points=3)
    migration_model = OnlineMeanModel(min_points=2)
    for row in rows:
        kind = row.get("kind")
        if kind == "prediction":
            x = decode_float(row.get("x"))
            actual = decode_float(row.get("actual"))
            if x is not None and actual is not None:
                beta_model.observe(x, actual)
        elif kind == "outcome" and row.get("phase") == "migrate":
            seconds = decode_float(row.get("seconds"))
            if seconds is not None:
                migration_model.observe(seconds)
    hindsight_beta = (
        beta_model.slope
        if not beta_model.is_cold and beta_model.slope > 0.0
        else None
    )
    hindsight_migration = (
        migration_model.mean if not migration_model.is_cold else None
    )

    decisions = disagreements = 0
    regret = 0.0
    per_decision: list[dict[str, Any]] = []
    for row in rows:
        if row.get("kind") != "gate":
            continue
        decisions += 1
        gate = RepartitionGate(
            LearnConfig(gate_safety=float(row["gate_safety"]))
        )
        oracle = gate.decide(
            loads=np.asarray(row["loads"], dtype=float),
            capacities=np.asarray(row["capacities"], dtype=float),
            horizon_iters=int(row["horizon_iters"]),
            beta=hindsight_beta,
            migration_seconds=hindsight_migration,
        )
        recorded_action = bool(row["repartition"])
        agree = oracle.repartition == recorded_action
        margin = 0.0
        if not agree:
            disagreements += 1
            # The oracle's own conviction: how far its payoff sat from
            # its cost.  A cold oracle (infinite payoff) cannot price
            # regret, but a cold oracle also always repartitions --
            # matching the live gate's cold fallback -- so a cold
            # disagreement only arises against a warm recorded skip.
            if math.isfinite(oracle.payoff_seconds):
                margin = abs(oracle.payoff_seconds - oracle.cost_seconds)
            regret += margin
        per_decision.append(
            {
                "seq": int(row["seq"]),
                "recorded": recorded_action,
                "oracle": oracle.repartition,
                "agree": agree,
                "regret_seconds": margin,
            }
        )
    return {
        "decisions": decisions,
        "disagreements": disagreements,
        "agreement_rate": (
            (decisions - disagreements) / decisions if decisions else None
        ),
        "cumulative_regret_seconds": regret,
        "oracle_beta": hindsight_beta,
        "oracle_migration_seconds": hindsight_migration,
        "per_decision": per_decision,
    }


# -- forecast scoring --------------------------------------------------
def _forecast_error(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Join each capacity forecast against the nearest later probe."""
    senses = [
        (float(decode_float(r["t"]) or 0.0), r)
        for r in rows
        if r.get("kind") == "outcome" and r.get("phase") == "sense"
    ]
    senses.sort(key=lambda item: item[0])
    times = [t for t, _ in senses]
    joined = 0
    abs_err = 0.0
    forecasts = 0
    for row in rows:
        if row.get("kind") != "forecast":
            continue
        forecasts += 1
        target_t = decode_float(row.get("target_t"))
        predicted = row.get("predicted")
        if target_t is None or not predicted:
            continue
        idx = int(np.searchsorted(times, target_t))
        if idx >= len(senses):
            continue  # horizon never elapsed: nothing to score against
        measured = senses[idx][1].get("capacities")
        if not measured or len(measured) != len(predicted):
            continue
        p = np.asarray([decode_float(v) for v in predicted], dtype=float)
        m = np.asarray([decode_float(v) for v in measured], dtype=float)
        abs_err += float(np.abs(p - m).mean())
        joined += 1
    return {
        "forecasts": forecasts,
        "scored": joined,
        "mean_abs_error": abs_err / joined if joined else None,
    }


# -- the full reconciliation -------------------------------------------
def reconcile(rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Close the predict->measure loop over one ledger's rows.

    Accepts any iterable of decision-record dicts -- a
    :class:`DecisionLedger`'s rows or ``decision.*`` trace events
    mapped back to records -- so the CLI, the HTTP layer and the
    dashboard all compute the *same* numbers from the same joins.
    """
    rows = list(rows)
    counts: dict[str, int] = {}
    for row in rows:
        kind = str(row.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    gates = [r for r in rows if r.get("kind") == "gate"]
    accepts = sum(1 for r in gates if r.get("repartition"))
    reasons: dict[str, int] = {}
    for r in gates:
        reason = str(r.get("reason", "?"))
        reasons[reason] = reasons.get(reason, 0) + 1
    return {
        "records": len(rows),
        "counts": counts,
        "gate": {
            "decisions": len(gates),
            "accepts": accepts,
            "skips": len(gates) - accepts,
            "reasons": reasons,
        },
        "calibration": calibration(rows),
        "regret": oracle_replay(rows),
        "forecast": _forecast_error(rows),
    }
