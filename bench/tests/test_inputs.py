"""Inputs are a pure function of the seed; so are the simulated outputs."""

import numpy as np

from bench import inputs
from bench.workloads import WORKLOADS


def _patchwork(seed):
    return inputs.patchwork_columns(5_000, inputs.rng_for(seed, "partition_1m"))


def test_same_seed_same_inputs():
    for a, b in zip(_patchwork(11), _patchwork(11)):
        assert np.array_equal(a, b)
    assert inputs.campaign_seeds(11, 6) == inputs.campaign_seeds(11, 6)
    assert inputs.outage_window(inputs.rng_for(11, "chaos_amr")) == inputs.outage_window(
        inputs.rng_for(11, "chaos_amr")
    )
    caps = [inputs.class_capacities(1024, inputs.rng_for(11, "c")) for _ in range(2)]
    assert np.array_equal(*caps)


def test_different_seed_different_inputs():
    assert not np.array_equal(_patchwork(11)[1], _patchwork(12)[1])
    assert inputs.campaign_seeds(11, 6) != inputs.campaign_seeds(12, 6)
    assert inputs.outage_window(inputs.rng_for(11, "chaos_amr")) != inputs.outage_window(
        inputs.rng_for(12, "chaos_amr")
    )
    a = inputs.skewed_capacities(64, inputs.rng_for(11, "s"))
    b = inputs.skewed_capacities(64, inputs.rng_for(12, "s"))
    assert not np.array_equal(a, b)


def test_streams_are_independent():
    a = inputs.rng_for(11, "partition_1m").integers(0, 1 << 30)
    b = inputs.rng_for(11, "partition_sweep").integers(0, 1 << 30)
    assert a != b


def test_patchwork_is_disjoint_and_capacities_normalised():
    from repro.util.geometry import BoxArray

    assert BoxArray(*_patchwork(11)).is_disjoint()
    for caps in (
        inputs.class_capacities(1024, inputs.rng_for(3, "c")),
        inputs.skewed_capacities(64, inputs.rng_for(3, "s")),
    ):
        assert abs(caps.sum() - 1.0) < 1e-12 and (caps > 0).all()


def _short_sim_time(seed, tmp_path):
    workload = WORKLOADS["rm3d32_trace"]()
    workload.setup(seed, tmp_path)
    return workload.digest(workload.runtime(iterations=20).run())


def test_sim_time_repeats_for_a_seed_and_moves_with_it(tmp_path):
    first, again, other = (
        _short_sim_time(11, tmp_path),
        _short_sim_time(11, tmp_path),
        _short_sim_time(12, tmp_path),
    )
    assert first.sim_time_s == again.sim_time_s
    assert first.fingerprint == again.fingerprint
    assert first.sim_time_s != other.sim_time_s
