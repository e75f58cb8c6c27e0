"""The columnar probe sweep against the per-node sweep it replaced.

:class:`~tests.monitor.sweep_oracle.SweepOracle` probes node by node
through the scalar state formulas; :meth:`ResourceMonitor.probe_all`
reads :meth:`Cluster.resources` as three columns.  On random clusters,
load tables, crashes, sensor blackouts, link derating and noise, both
must give the same snapshots, stale sets, probe spans and failure
counters bit for bit, sweep after sweep.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, NodeSpec, SyntheticLoadGenerator
from repro.monitor import ResourceMonitor
from repro.telemetry import Tracer
from tests.monitor.sweep_oracle import SweepOracle, state_of

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def clusters(draw) -> Cluster:
    n = draw(st.integers(1, 64))
    cluster = Cluster(
        [
            NodeSpec(
                name=f"n{k}",
                cpu_speed=draw(st.floats(0.1, 4.0, **finite)),
                memory_mb=draw(st.floats(1.0, 2048.0, **finite)),
                bandwidth_mbps=draw(st.sampled_from([10.0, 100.0, 1000.0])),
                os_overhead=draw(st.floats(0.0, 0.5, **finite)),
            )
            for k in range(n)
        ]
    )
    for _ in range(draw(st.integers(0, 2 * n))):
        start = draw(st.floats(-5.0, 60.0, **finite))
        cluster.add_load_generator(
            SyntheticLoadGenerator(
                node=draw(st.integers(0, n - 1)),
                start_time=start,
                ramp_rate=draw(st.floats(0.01, 20.0, **finite)),
                target_level=draw(st.floats(0.0, 6.0, **finite)),
                stop_time=draw(
                    st.one_of(
                        st.none(),
                        st.floats(0.0, 60.0, **finite).map(
                            lambda d, s=start: s + d
                        ),
                    )
                ),
                memory_per_unit_mb=draw(st.floats(0.0, 400.0, **finite)),
                bandwidth_fraction_per_unit=draw(st.floats(0.0, 1.0, **finite)),
            )
        )
    return cluster


@st.composite
def sweeps(draw, n: int) -> list[dict]:
    """One to four sweeps, each after its own fault changes."""
    nodes = st.sets(st.integers(0, n - 1), max_size=n)
    return [
        {
            "dt": draw(st.floats(0.0, 30.0, **finite)),
            "t": draw(st.one_of(st.none(), st.floats(-2.0, 90.0, **finite))),
            "down": draw(nodes),
            "blackout": draw(nodes),
            "derate": draw(
                st.dictionaries(
                    st.integers(0, n - 1),
                    st.floats(0.01, 1.0, **finite),
                    max_size=n,
                )
            ),
        }
        for _ in range(draw(st.integers(1, 4)))
    ]


def bits(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def typed(attrs: dict) -> dict:
    return {k: (type(v), v) for k, v in attrs.items()}


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    clusters(),
    st.sampled_from([0.0, 0.05, 0.5, 2.0]),
    st.integers(0, 2**16),
)
def test_column_sweep_matches_per_node_sweep(data, cluster, noise, seed):
    n = cluster.num_nodes
    new_tracer, old_tracer = Tracer(), Tracer()
    monitor = ResourceMonitor(cluster, noise=noise, seed=seed, tracer=new_tracer)
    oracle = SweepOracle(cluster, noise=noise, seed=seed, tracer=old_tracer)
    for step in data.draw(sweeps(n)):
        cluster.clock.advance(step["dt"])
        for node in range(n):
            if node in step["down"]:
                cluster.mark_down(node)
            else:
                cluster.mark_up(node)
            if node in step["derate"]:
                cluster.degrade_link(node, step["derate"][node])
            else:
                cluster.restore_link(node)
            for m in (monitor, oracle):
                if node in step["blackout"]:
                    m.blackout_sensor(node)
                else:
                    m.restore_sensor(node)
        t = step["t"]
        got, want = monitor.probe_all(t), oracle.probe_all(t)

        assert got.time == want.time
        assert bits(*got.cpu) == bits(*want.cpu)
        assert bits(*got.memory_mb) == bits(*want.memory_mb)
        assert bits(*got.bandwidth_mbps) == bits(*want.bandwidth_mbps)
        assert got.stale_nodes == want.stale_nodes
        assert bits(got.overhead_seconds) == bits(want.overhead_seconds)
        assert typed(new_tracer.spans[-1].attributes) == typed(
            old_tracer.spans[-1].attributes
        )

        # Row k of the resource columns is the scalar state of node k.
        when = cluster.clock.now if t is None else t
        columns = cluster.resources(t)
        for node in range(n):
            scalar = state_of(cluster, node, t)
            row = bits(*(col[node] for col in columns))
            assert row == bits(
                scalar.cpu_available,
                scalar.free_memory_mb,
                scalar.bandwidth_mbps,
            )
            assert cluster.state_of(node, when) == scalar
    assert new_tracer.metrics.counter("probe_failures").value == (
        old_tracer.metrics.counter("probe_failures").value
    )
