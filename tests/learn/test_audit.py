"""Decision-ledger tests: durability, bit-exact replay, reconciliation.

The contract under test: the ledger is a *complete causal account* of
every adaptive decision.  Gate decisions must replay bit-exactly from
recorded inputs alone; prediction rows are captured before the measured
point folds into the model (honest out-of-sample coverage); and the
ledger must be decision-neutral -- attaching one never changes what the
runtime does.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.learn import (
    DecisionLedger,
    LearnConfig,
    LearnController,
    calibration,
    decode_float,
    encode_float,
    load_ledger_rows,
    oracle_replay,
    reconcile,
    replay_decision,
    verify_decision,
)
from repro.learn.audit import LEDGER_NAME, RECORD_KINDS
from repro.runtime.timemodel import IterationCost
from repro.util.errors import ExperimentError


def cost(compute, sync: float = 0.1) -> IterationCost:
    compute = np.asarray(compute, dtype=float)
    return IterationCost(
        compute=compute,
        comm=np.zeros_like(compute),
        sync=sync,
        total=float(compute.max()) + sync,
    )


def drive(learn: LearnController, iters: int = 10, tracer=None) -> None:
    """Feed a controller enough observations to warm every model."""
    learn.bind(tracer, 2)
    for it in range(iters):
        loads = np.array([10.0 + it, 10.0 - it])
        caps = np.array([0.5, 0.5])
        learn.observe_sense(float(it), caps, 0.2)
        learn.observe_iteration(
            it, float(it), loads, caps, cost([1.0 + 0.1 * it, 1.0])
        )
        learn.observe_repartition(float(it), 0.3, 1024)


def canon(rows) -> list[str]:
    return [json.dumps(r, sort_keys=True) for r in rows]


class TestFloatSentinels:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (1.5, 1.5),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (None, None),
        ],
    )
    def test_round_trip(self, value, encoded):
        assert encode_float(value) == encoded
        assert decode_float(encode_float(value)) == value

    def test_nan_round_trip(self):
        assert encode_float(math.nan) == "nan"
        assert math.isnan(decode_float("nan"))

    def test_survives_json(self):
        wire = json.dumps({"payoff": encode_float(math.inf)})
        assert decode_float(json.loads(wire)["payoff"]) == math.inf

    def test_unknown_sentinel_rejected(self):
        with pytest.raises(ExperimentError):
            decode_float("infinity")


class TestLedgerDurability:
    def fill(self, ledger: DecisionLedger, n: int = 8) -> None:
        for i in range(n):
            ledger.record(
                "prediction",
                iteration=i,
                t=float(i),
                x=10.0 * i,
                predicted=1.0,
                lo=0.9,
                hi=1.1,
                actual=1.0,
                cold=False,
            )

    def test_reopen_replays_identical_rows(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        self.fill(ledger)
        rows = canon(ledger.rows())
        assert canon(DecisionLedger(tmp_path / "d").rows()) == rows

    def test_seq_is_monotonic(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        self.fill(ledger, 5)
        assert [r["seq"] for r in ledger.rows()] == list(range(5))

    def test_interrupt_resume_byte_identical(self, tmp_path):
        a = DecisionLedger(tmp_path / "a")
        self.fill(a, 8)
        b = DecisionLedger(tmp_path / "b")
        self.fill(b, 4)
        resumed = DecisionLedger(tmp_path / "b")
        for i in range(4, 8):
            resumed.record(
                "prediction",
                iteration=i,
                t=float(i),
                x=10.0 * i,
                predicted=1.0,
                lo=0.9,
                hi=1.1,
                actual=1.0,
                cold=False,
            )
        assert (
            (tmp_path / "a" / LEDGER_NAME).read_bytes()
            == (tmp_path / "b" / LEDGER_NAME).read_bytes()
        )

    def test_torn_tail_truncated(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        self.fill(ledger, 6)
        path = tmp_path / "d" / LEDGER_NAME
        path.write_bytes(path.read_bytes() + b'{"seq": 6, "kind": "ga')
        reopened = DecisionLedger(tmp_path / "d")
        assert len(reopened) == 6
        reopened.record("outcome", phase="sense", t=6.0, capacities=[1.0])
        assert [r["seq"] for r in DecisionLedger(tmp_path / "d").rows()] == (
            list(range(7))
        )

    def test_corrupt_index_ignored(self, tmp_path):
        """A stray ``index.json`` left by an older version is not read."""
        ledger = DecisionLedger(tmp_path / "d")
        self.fill(ledger, 4)
        (tmp_path / "d" / "index.json").write_text("not json")
        assert len(DecisionLedger(tmp_path / "d")) == 4

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            DecisionLedger(tmp_path / "d").record("guess", value=1)
        assert "guess" not in RECORD_KINDS

    def test_rows_filter_and_get(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        self.fill(ledger, 3)
        ledger.record("outcome", phase="migrate", t=9.0, seconds=0.5)
        assert len(ledger.rows("prediction")) == 3
        assert ledger.get(3)["kind"] == "outcome"
        with pytest.raises(ExperimentError):
            ledger.get(99)

    def test_load_ledger_rows_accepts_dir_and_file(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        self.fill(ledger, 2)
        by_dir = load_ledger_rows(tmp_path / "d")
        by_file = load_ledger_rows(tmp_path / "d" / LEDGER_NAME)
        assert canon(by_dir) == canon(by_file) == canon(ledger.rows())

    def test_load_missing_ledger_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_ledger_rows(tmp_path / "nope")


class TestReplay:
    def warm_with_ledger(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        drive(learn)
        return learn, ledger

    def test_warm_gate_replays_bit_exactly(self, tmp_path):
        learn, ledger = self.warm_with_ledger(tmp_path)
        learn.repartition_decision(
            np.array([30.0, 2.0]),
            np.array([0.5, 0.5]),
            12,
            iteration=10,
            t=10.0,
        )
        (record,) = ledger.rows("gate")
        report = verify_decision(record)
        assert report["match"], report["mismatches"]

    def test_cold_gate_infinite_payoff_replays_through_disk(self, tmp_path):
        """A cold gate's inf payoff survives JSON and replays exactly."""
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        learn.bind(None, 2)
        d = learn.repartition_decision(
            np.array([9.0, 1.0]), np.array([0.5, 0.5]), 5
        )
        assert d.reason == "cold" and math.isinf(d.payoff_seconds)
        (record,) = load_ledger_rows(tmp_path / "d")
        assert record["payoff_seconds"] == "inf"
        report = verify_decision(record)
        assert report["match"]
        assert report["replayed"]["payoff_seconds"] == math.inf

    def test_tampered_record_diverges(self, tmp_path):
        learn, ledger = self.warm_with_ledger(tmp_path)
        learn.repartition_decision(
            np.array([30.0, 2.0]), np.array([0.5, 0.5]), 12
        )
        (record,) = ledger.rows("gate")
        tampered = dict(record)
        tampered["beta"] = float(record["beta"]) * 2.0
        report = verify_decision(tampered)
        assert not report["match"]
        assert "payoff_seconds" in report["mismatches"]

    def test_replay_rejects_non_gate_records(self):
        with pytest.raises(ExperimentError):
            replay_decision({"kind": "prediction", "seq": 0})


class TestControllerLedger:
    def test_prediction_recorded_before_fold(self, tmp_path):
        """Row i's model digest excludes measurement i (out-of-sample)."""
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        drive(learn, iters=6)
        preds = ledger.rows("prediction")
        assert len(preds) == 6
        # The first prediction came from a completely cold model.
        assert preds[0]["cold"] is True
        assert preds[0]["lo"] == "-inf" and preds[0]["hi"] == "inf"
        # Later rows are warm with finite CIs.
        assert preds[-1]["cold"] is False
        assert math.isfinite(decode_float(preds[-1]["lo"]))

    def test_sense_interval_recorded_on_change(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        drive(learn)
        learn.sensing_interval()
        changes = ledger.rows("sense_interval")
        assert changes, "warm drift must move the interval at least once"
        assert {"interval", "drift_rate", "fallback_interval"} <= set(
            changes[0]
        )
        # Re-asking without new evidence records nothing new.
        n = len(ledger)
        learn.sensing_interval()
        assert len(ledger) == n

    def test_migrate_outcome_carries_prefold_prediction(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        learn.bind(None, 2)
        learn.observe_repartition(0.0, 0.5, 10)
        learn.observe_repartition(1.0, 0.7, 10)
        learn.observe_repartition(2.0, 0.9, 10)
        migrates = [
            r for r in ledger.rows("outcome") if r["phase"] == "migrate"
        ]
        # Cold before the second observation folds (min_points=2).
        assert migrates[0]["predicted_seconds"] is None
        assert migrates[1]["predicted_seconds"] is None
        assert migrates[2]["predicted_seconds"] == pytest.approx(0.6)

    def test_recover_records_dead_nodes(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        learn.bind(None, 4)
        learn.observe_recover(5.0, [2, 3], 0.8, 4096, evacuated_bytes=99)
        (row,) = ledger.rows("recover")
        assert row["dead_nodes"] == [2, 3]
        assert row["evacuated_bytes"] == 99
        assert row["predicted_migration_seconds"] is None  # cold model

    def test_no_ledger_records_nothing(self):
        learn = LearnController(LearnConfig())
        drive(learn)
        learn.repartition_decision(
            np.array([30.0, 2.0]), np.array([0.5, 0.5]), 12
        )
        assert learn.ledger is None
        assert learn.summary()["ledger"] is None

    def test_summary_reports_ledger_size(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        drive(learn, iters=3)
        assert learn.summary()["ledger"]["records"] == len(ledger)


class TestCalibration:
    def pred(self, seq, lo, hi, actual, predicted=1.0):
        return {
            "seq": seq,
            "kind": "prediction",
            "lo": lo,
            "hi": hi,
            "predicted": predicted,
            "actual": actual,
        }

    def test_coverage_hand_computed(self):
        rows = [
            self.pred(0, 0.9, 1.1, 1.0),   # covered
            self.pred(1, 0.9, 1.1, 1.05),  # covered
            self.pred(2, 0.9, 1.1, 1.2),   # missed
            self.pred(3, 0.9, 1.1, 0.8),   # missed
        ]
        out = calibration(rows)
        assert out["predictions"] == 4
        assert out["covered"] == 2
        assert out["coverage"] == pytest.approx(0.5)
        assert out["mean_abs_error_seconds"] == pytest.approx(
            (0.0 + 0.05 + 0.2 + 0.2) / 4
        )

    def test_cold_counted_separately(self):
        rows = [
            self.pred(0, "-inf", "inf", 1.0),  # cold: always "covers"
            self.pred(1, 0.9, 1.1, 1.0),
        ]
        out = calibration(rows)
        assert out["predictions"] == 1
        assert out["cold_predictions"] == 1
        assert out["coverage"] == pytest.approx(1.0)

    def test_empty_rows(self):
        out = calibration([])
        assert out["coverage"] is None
        assert out["predictions"] == 0


class TestOracleReplay:
    def gate_row(self, seq, *, beta, migration, repartition, reason,
                 payoff, cost_s, loads=(30.0, 2.0)):
        return {
            "seq": seq,
            "kind": "gate",
            "loads": list(loads),
            "capacities": [0.5, 0.5],
            "horizon_iters": 10,
            "beta": beta,
            "migration_seconds": migration,
            "gate_safety": 1.0,
            "repartition": repartition,
            "reason": reason,
            "payoff_seconds": payoff,
            "cost_seconds": cost_s,
        }

    def test_agreement_yields_zero_regret(self):
        # Oracle models stay cold (no prediction/migrate rows), so the
        # oracle repartitions everywhere -- agreeing with a recorded
        # cold accept.
        rows = [
            self.gate_row(
                0, beta=None, migration=None, repartition=True,
                reason="cold", payoff="inf", cost_s=0.0,
            )
        ]
        out = oracle_replay(rows)
        assert out["decisions"] == 1
        assert out["disagreements"] == 0
        assert out["cumulative_regret_seconds"] == 0.0
        assert out["agreement_rate"] == 1.0

    def test_disagreement_charges_oracle_margin(self):
        # Warm the hindsight models: slope 2.0 s per unit work,
        # migrations measured at 0.1 s.
        rows = [
            {"seq": i, "kind": "prediction", "x": float(i),
             "predicted": 2.0 * i, "lo": 0.0, "hi": 100.0,
             "actual": 2.0 * i}
            for i in range(4)
        ]
        rows += [
            {"seq": 4 + i, "kind": "outcome", "phase": "migrate",
             "seconds": 0.1}
            for i in range(2)
        ]
        # Recorded: a cold-model skip.  Hindsight: loads [30, 2] on
        # equal capacities -> bottleneck 60, total 32, excess 28;
        # payoff = 2.0 * 28 * 10 = 560 s vs cost 0.1 s -> repartition.
        rows.append(
            self.gate_row(
                6, beta=None, migration=0.1, repartition=False,
                reason="skip", payoff=0.0, cost_s=0.1,
            )
        )
        out = oracle_replay(rows)
        assert out["oracle_beta"] == pytest.approx(2.0)
        assert out["oracle_migration_seconds"] == pytest.approx(0.1)
        assert out["disagreements"] == 1
        assert out["cumulative_regret_seconds"] == pytest.approx(
            560.0 - 0.1
        )
        (per,) = out["per_decision"]
        assert per["recorded"] is False and per["oracle"] is True

    def test_no_gates_no_rate(self):
        out = oracle_replay([])
        assert out["agreement_rate"] is None
        assert out["cumulative_regret_seconds"] == 0.0


class TestReconcile:
    def test_counts_and_gate_mix(self, tmp_path):
        ledger = DecisionLedger(tmp_path / "d")
        learn = LearnController(LearnConfig(), ledger=ledger)
        drive(learn)
        learn.repartition_decision(
            np.array([30.0, 2.0]), np.array([0.5, 0.5]), 12
        )
        learn.repartition_decision(
            np.array([5.0, 5.0]), np.array([0.5, 0.5]), 12
        )
        report = reconcile(load_ledger_rows(tmp_path / "d"))
        assert report["records"] == len(ledger)
        assert report["counts"]["gate"] == 2
        assert report["gate"]["decisions"] == 2
        assert (
            report["gate"]["accepts"] + report["gate"]["skips"] == 2
        )
        assert sum(report["gate"]["reasons"].values()) == 2
        assert report["calibration"]["predictions"] >= 1

    def test_trace_events_reconcile_identically(self, tmp_path):
        """Ledger rows and decision.* events give the same numbers."""
        from repro.telemetry.profile import _as_records
        from repro.telemetry.report import _decision_rows
        from repro.telemetry.spans import Tracer

        ledger = DecisionLedger(tmp_path / "d")
        tracer = Tracer()
        learn = LearnController(LearnConfig(), ledger=ledger)
        drive(learn, tracer=tracer)
        learn.repartition_decision(
            np.array([30.0, 2.0]), np.array([0.5, 0.5]), 12
        )
        events = [
            r
            for r in _as_records(tracer)
            if r.get("type") == "event"
            and str(r.get("name", "")).startswith("decision.")
        ]
        assert events, "decision.* events must mirror the ledger"
        assert reconcile(_decision_rows(events)) == reconcile(
            load_ledger_rows(tmp_path / "d")
        )


class TestLedgerNeutrality:
    def test_engine_run_identical_with_and_without_ledger(self, tmp_path):
        """Attaching a ledger never changes what the runtime decides."""
        from tests.learn.test_integration import (
            result_fingerprint,
            run_engine,
        )

        plain = run_engine(LearnController(LearnConfig()), iters=20)
        ledgered = run_engine(
            LearnController(
                LearnConfig(), ledger=DecisionLedger(tmp_path / "d")
            ),
            iters=20,
        )
        assert result_fingerprint(plain) == result_fingerprint(ledgered)
        assert len(DecisionLedger(tmp_path / "d")) > 0

    def test_no_decision_events_without_ledger(self):
        from repro.telemetry.profile import _as_records
        from repro.telemetry.spans import Tracer

        tracer = Tracer()
        learn = LearnController(LearnConfig())
        drive(learn, tracer=tracer)
        learn.repartition_decision(
            np.array([30.0, 2.0]), np.array([0.5, 0.5]), 12
        )
        names = {
            str(r.get("name", ""))
            for r in _as_records(tracer)
            if r.get("type") == "event"
        }
        assert not any(n.startswith("decision.") for n in names)
