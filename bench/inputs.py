"""Seeded input generators: every workload's inputs are a pure function of ``--seed``.

Nothing here imports the program under test; the generators return plain
numbers and numpy arrays that :mod:`bench.workloads` hands to the
program's public constructors.
"""

from __future__ import annotations

import math

import numpy as np

#: Four node generations of the 1 M-box / 1024-rank reference (ROADMAP).
CAPACITY_CLASSES = (1.0, 1.5, 2.0, 4.0)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream): adding a stream to one
    workload never shifts the numbers another workload draws."""
    return np.random.default_rng([int(seed), *stream.encode()])


def patchwork_columns(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` disjoint 2-D boxes on a 16-cell lattice, three levels.

    Box sides (8/12/16 cells) and levels are drawn per box, so the work
    vector is irregular and the curve order differs per seed; the
    lattice keeps the set disjoint by construction.  Returns
    ``(lower, upper, level)`` int64 columns.
    """
    i = np.arange(n, dtype=np.int64)
    side = math.ceil(math.sqrt(n))
    corner = np.stack([(i % side) * 16, (i // side) * 16], axis=1)
    size = rng.integers(2, 5, size=n) * 4
    level = rng.integers(0, 3, size=n)
    return corner, corner + size[:, None], level


def class_capacities(ranks: int, rng: np.random.Generator) -> np.ndarray:
    """Equal shares of the four capacity classes, shuffled over ranks."""
    caps = np.tile(np.array(CAPACITY_CLASSES), ranks // len(CAPACITY_CLASSES))
    rng.shuffle(caps)
    return caps / caps.sum()


def skewed_capacities(ranks: int, rng: np.random.Generator) -> np.ndarray:
    """A geometric ladder of capacities (max/min = 20x), shuffled over ranks.

    The multiset is fixed and only the placement is drawn, so the
    slowest rank -- which sets the makespan of a capacity-blind scheme --
    is equally slow for every seed.
    """
    caps = np.geomspace(1.0, 20.0, ranks)
    rng.shuffle(caps)
    return caps / caps.sum()


def campaign_seeds(seed: int, count: int) -> tuple[int, ...]:
    """The campaign grid's seed axis."""
    return tuple(int(seed) * 100 + k for k in range(count))


def outage_window(rng: np.random.Generator) -> tuple[float, float]:
    """Start/end of the chaos outage as fractions of the stepping phase.

    The ranges keep the crash inside the run and the recovery before its
    end, so every seed exercises one restore and one regrow.
    """
    return float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.6, 0.8))
