"""Unit tests for the characterization metric panel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition import ACEComposite, ACEHeterogeneous, GreedyLPT
from repro.runtime.characterization import CharacterizationRow, characterize
from tests.conftest import moving_blob_trace

CAPS = np.array([0.16, 0.19, 0.31, 0.34])


@pytest.fixture(scope="module")
def workload():
    return moving_blob_trace(domain_shape=(64, 64), num_regrids=5, max_levels=3)


class TestCharacterize:
    def test_row_fields(self, workload):
        row = characterize(ACEHeterogeneous(), workload, CAPS)
        assert isinstance(row, CharacterizationRow)
        assert row.partitioner == "ACEHeterogeneous"
        assert row.mean_imbalance_pct <= row.max_imbalance_pct + 1e-9
        assert row.mean_comm_kb > 0
        assert row.fragmentation >= 1.0
        assert row.mean_partition_ms > 0

    def test_no_split_fragmentation_is_one(self, workload):
        row = characterize(GreedyLPT(), workload, CAPS)
        assert row.fragmentation == 1.0

    def test_migration_zero_for_single_epoch(self):
        w = moving_blob_trace(domain_shape=(32, 32), num_regrids=1, max_levels=2)
        row = characterize(ACEHeterogeneous(), w, CAPS)
        assert row.mean_migration_kb == 0.0

    def test_capacity_blind_scores_high_imbalance(self, workload):
        het = characterize(ACEHeterogeneous(), workload, CAPS)
        comp = characterize(ACEComposite(), workload, CAPS)
        assert comp.mean_imbalance_pct > het.mean_imbalance_pct

    def test_capacities_normalized_internally(self, workload):
        a = characterize(ACEHeterogeneous(), workload, CAPS)
        b = characterize(ACEHeterogeneous(), workload, CAPS * 10)
        assert a.mean_imbalance_pct == pytest.approx(b.mean_imbalance_pct)
