"""Learned cost models and predictive partitioning policies.

The decision-making layer on top of the observability stack: an
execution-history store (:mod:`repro.learn.history`), least-squares
cost/capacity models fitted from it (:mod:`repro.learn.models`), the
adaptive sensing + payoff-gated repartitioning policies that replace the
paper's hand-tuned constants (:mod:`repro.learn.policy`), and the
decision-provenance ledger + reconciliation engine that audits them
after the fact (:mod:`repro.learn.audit`).
"""

from repro.learn.audit import (
    DecisionLedger,
    calibration,
    decode_float,
    encode_float,
    load_ledger_rows,
    oracle_replay,
    reconcile,
    replay_decision,
    verify_decision,
)
from repro.learn.history import ExecutionHistoryStore
from repro.learn.models import (
    OnlineLinearModel,
    OnlineMeanModel,
    TransientCapacityModel,
)
from repro.learn.policy import (
    NULL_LEARNER,
    AdaptiveSensingPolicy,
    GateDecision,
    LearnConfig,
    LearnController,
    NullLearner,
    RepartitionGate,
)

__all__ = [
    "ExecutionHistoryStore",
    "OnlineLinearModel",
    "OnlineMeanModel",
    "TransientCapacityModel",
    "LearnConfig",
    "AdaptiveSensingPolicy",
    "GateDecision",
    "RepartitionGate",
    "LearnController",
    "NullLearner",
    "NULL_LEARNER",
    "DecisionLedger",
    "encode_float",
    "decode_float",
    "load_ledger_rows",
    "replay_decision",
    "verify_decision",
    "calibration",
    "oracle_replay",
    "reconcile",
]
