"""Cross-partitioner properties of the vectorized work-model path.

Every partitioner must (a) conserve total work, (b) cover its input
exactly, (c) produce *identical* assignments whether it is handed a
:class:`WorkModel` or nothing at all, and (d) report loads that match a
per-box accumulation loop over its own assignment -- the vectorization is
a pure performance change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    GraphPartitioner,
    GreedyLPT,
    LevelPartitioner,
    SFCHybrid,
)
from repro.partition.workmodel import WorkModel
from repro.util.geometry import BoxList
from tests.conftest import box_work as default_work

PAPER_CAPS = np.array([0.16, 0.19, 0.31, 0.34])


def epoch(i: int = 3) -> BoxList:
    return paper_rm3d_trace(num_regrids=8).epoch(i)


def make_partitioners():
    return [
        ACEHeterogeneous(),
        ACEComposite(),
        GreedyLPT(),
        SFCHybrid(),
        GraphPartitioner(),
        LevelPartitioner(ACEHeterogeneous()),
        LevelPartitioner(ACEComposite()),
    ]


@pytest.mark.parametrize(
    "p", make_partitioners(), ids=lambda p: p.name
)
class TestCrossPartitionerProperties:
    def test_conserves_total_work(self, p):
        model = WorkModel()
        r = p.partition(epoch(), PAPER_CAPS, model)
        # Splitting preserves cells, so realized work sums to the input's.
        assert r.loads().sum() == pytest.approx(
            model.total(epoch()), rel=1e-12
        )

    def test_covers_input_exactly(self, p):
        r = p.partition(epoch(), PAPER_CAPS, WorkModel())
        r.validate_covers(epoch())

    def test_assignment_identical_model_vs_default(self, p):
        with_model = p.partition(epoch(), PAPER_CAPS, WorkModel())
        with_default = p.partition(epoch(), PAPER_CAPS)
        assert with_model.layout.pairs() == with_default.layout.pairs()

    def test_loads_identical_model_vs_default(self, p):
        with_model = p.partition(epoch(), PAPER_CAPS, WorkModel())
        with_default = p.partition(epoch(), PAPER_CAPS)
        np.testing.assert_array_equal(
            with_model.loads(), with_default.loads()
        )

    def test_work_vector_aligned_with_assignment(self, p):
        r = p.partition(epoch(), PAPER_CAPS, WorkModel())
        expected = [default_work(b) for b, _ in r.layout.pairs()]
        assert r.work_vector().tolist() == expected

    def test_loads_match_legacy_per_box_loop(self, p):
        r = p.partition(epoch(), PAPER_CAPS, WorkModel())
        loop = np.zeros(r.num_ranks)
        for box, rank in r.layout.pairs():
            loop[rank] += default_work(box)
        np.testing.assert_array_equal(r.loads(), loop)


@settings(max_examples=25, deadline=None)
@given(
    caps=st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6
    ),
    epoch_idx=st.integers(min_value=0, max_value=5),
)
def test_heterogeneous_conservation_any_capacities(caps, epoch_idx):
    boxes = paper_rm3d_trace(num_regrids=6).epoch(epoch_idx)
    model = WorkModel()
    r = ACEHeterogeneous().partition(boxes, caps, model)
    assert r.loads().sum() == pytest.approx(model.total(boxes), rel=1e-12)
    r.validate_covers(boxes)
