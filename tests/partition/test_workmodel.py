"""Unit tests for the vectorized work model."""

from __future__ import annotations

import re
import types
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.workloads import paper_rm3d_trace
from repro.partition import (
    ACEComposite,
    ACEHeterogeneous,
    LevelPartitioner,
    SFCHybrid,
    load_imbalance,
)
from repro.partition.workmodel import WorkModel, as_work_model
from repro.util.errors import PartitionError
from repro.util.geometry import Box, BoxList
from tests.conftest import box_row, box_work as default_work, layout_pairs

PAPER_CAPS = [0.16, 0.19, 0.31, 0.34]


def boxes() -> BoxList:
    return paper_rm3d_trace(num_regrids=6).epoch(3)


class ScaledWork(WorkModel):
    """``scale`` x Berger-Oliger, written the documented way: the same
    formula over columns (``compute``) and over one row (``work_row``)."""

    scale = 3.0

    def compute(self, bxs):
        return self.scale * super().compute(bxs)

    def work_row(self, lower, upper, level):
        return self.scale * super().work_row(lower, upper, level)


class TestWorkModel:
    def test_vector_matches_per_box_default_work(self):
        model = WorkModel()
        vec = model.vector(boxes())
        expected = [default_work(b) for b in boxes()]
        assert vec.tolist() == expected

    def test_vector_respects_refine_factor(self):
        model = WorkModel(refine_factor=4)
        vec = model.vector(boxes())
        expected = [default_work(b, refine_factor=4) for b in boxes()]
        assert vec.tolist() == expected

    def test_vector_is_cached_by_identity(self):
        model = WorkModel()
        bl = boxes()
        assert model.vector(bl) is model.vector(bl)

    def test_vector_is_read_only(self):
        vec = WorkModel().vector(boxes())
        with pytest.raises(ValueError):
            vec[0] = 1.0

    def test_list_cache_is_bounded(self):
        model = WorkModel()
        lists = [boxes() for _ in range(40)]
        for bl in lists:
            model.vector(bl)
        assert len(model._list_cache) <= 32

    def test_total_is_sequential_sum(self):
        model = WorkModel()
        bl = boxes()
        # Bit-identical to a per-box accumulation loop.
        assert model.total(bl) == sum(default_work(b) for b in bl)

    def test_work_row_memoized(self):
        model = WorkModel()
        b = Box((0, 0), (8, 4), level=2)
        assert model.work_row(*box_row(b)) == default_work(b)
        assert box_row(b) in model._row_cache

    def test_empty_sequence(self):
        model = WorkModel()
        assert model.vector(BoxList()).shape == (0,)
        assert model.total(BoxList()) == 0.0

    def test_invalid_refine_factor(self):
        with pytest.raises(PartitionError):
            WorkModel(refine_factor=0)

    def test_custom_subclass_compute(self):
        """The two hooks are overridden together or not at all; a model
        that does prices its split pieces with its own formula."""
        with pytest.raises(TypeError, match="also override work_row"):

            class VectorOnly(WorkModel):
                def compute(self, bxs):
                    return 3.0 * super().compute(bxs)

        with pytest.raises(TypeError, match="also override compute"):

            class RowOnly(WorkModel):
                def work_row(self, lower, upper, level):
                    return 3.0 * super().work_row(lower, upper, level)

        class Renamed(WorkModel):  # neither hook: fine
            name = "renamed"

        assert Renamed().vector(boxes()).tolist() == WorkModel().vector(
            boxes()
        ).tolist()

        model = ScaledWork()
        assert model.vector(boxes()).tolist() == [
            3.0 * default_work(b) for b in boxes()
        ]
        result = ACEHeterogeneous().partition(boxes(), PAPER_CAPS, model)
        assert result.num_splits > 0
        assert result.work_vector().tolist() == [
            3.0 * default_work(b) for b in result.boxes()
        ]


@pytest.mark.parametrize(
    "partitioner",
    [
        ACEHeterogeneous(),
        ACEComposite(),
        SFCHybrid(),
        LevelPartitioner(ACEHeterogeneous()),
        LevelPartitioner(ACEComposite()),
    ],
    ids=lambda p: p.name,
)
def test_scaled_model_gives_identical_layout(partitioner):
    """A model that only multiplies every weight by 3 must cut and deal
    the boxes exactly as the default model does."""
    epoch = paper_rm3d_trace(num_regrids=8).epoch(3)
    plain = partitioner.partition(epoch, PAPER_CAPS, WorkModel())
    scaled = partitioner.partition(epoch, PAPER_CAPS, ScaledWork())
    assert layout_pairs(scaled.layout) == layout_pairs(plain.layout)
    assert scaled.num_splits == plain.num_splits
    assert scaled.loads().tolist() == (3.0 * plain.loads()).tolist()


def test_tutorial_custom_model_snippet():
    """docs/TUTORIAL.md section 5's ``ParticleWeightedWork`` as printed,
    with no particles (weights = cells): it must cut with the formula it
    weighs with, i.e. balance as well as any consistently priced model."""
    tutorial = Path(__file__).parents[2] / "docs" / "TUTORIAL.md"
    section = tutorial.read_text(encoding="utf-8").split(
        "### Custom work models"
    )[1].split("\n## ")[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, re.S)
    epoch = paper_rm3d_trace(num_regrids=8).epoch(3)
    namespace = {
        "ACEHeterogeneous": ACEHeterogeneous,
        "boxes": epoch,
        "capacities": PAPER_CAPS,
        "my_particle_index": types.SimpleNamespace(
            count_in=lambda lower, upper, level: np.zeros(len(level))
        ),
    }
    exec(snippet, namespace)
    result = namespace["result"]
    assert result.work_model.name == "particle_weighted"
    assert result.work_vector().tolist() == [
        float(b.num_cells) for b in result.boxes()
    ]
    assert (result.loads() > 0).all()
    assert load_imbalance(result).max() < 5.0


class TestAsWorkModel:
    def test_none_gives_default_model(self):
        model = as_work_model(None, refine_factor=3)
        assert isinstance(model, WorkModel)
        assert model.refine_factor == 3

    def test_model_passes_through_preserving_caches(self):
        model = WorkModel()
        bl = boxes()
        vec = model.vector(bl)
        assert as_work_model(model) is model
        assert as_work_model(model).vector(bl) is vec

    def test_callable_rejected(self):
        with pytest.raises(PartitionError, match="subclass WorkModel"):
            as_work_model(default_work)
        with pytest.raises(PartitionError, match="subclass WorkModel"):
            ACEHeterogeneous().partition(boxes(), PAPER_CAPS, default_work)

    def test_non_callable_rejected(self):
        with pytest.raises(PartitionError):
            as_work_model(42)
