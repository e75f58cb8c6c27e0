"""Campaign specifications: a scenario × partitioner × seed × config grid.

A :class:`CampaignSpec` names the full grid of runs a campaign executes.
Expanding it yields one :class:`CellSpec` per grid point, each with a
*stable cell key* -- a human-greppable coordinate string plus a digest of
the cell's resolved config.  Keys are the identity the whole subsystem
hangs off: the orchestrator dedupes completed cells by key across
interruptions, the result store indexes and sorts by key, and the
determinism acceptance test compares key-sorted stores byte for byte.

Everything here is pure data: no I/O, no clocks, no randomness.  The same
spec dict always expands to the same cells with the same keys, on any
machine, in any process.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.util.durable import canonical_json
from repro.util.errors import CampaignError

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "CellSpec",
    "CampaignSpec",
    "canonical_json",
]

#: Version stamped into serialized specs and result records.
SPEC_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _digest(obj: Any, length: int = 10) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[
        :length
    ]


@dataclass(frozen=True)
class CellSpec:
    """One grid point: a single simulator run with fully resolved config."""

    scenario: str
    partitioner: str
    seed: int
    config: Mapping[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Stable identity of this cell.

        Readable coordinates plus a config digest, so two cells differing
        only in config never collide and a human can still grep a store
        for ``linux-static--greedy--s7``.
        """
        return (
            f"{self.scenario}--{self.partitioner}--s{self.seed}"
            f"--{_digest(dict(self.config))}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "partitioner": self.partitioner,
            "seed": int(self.seed),
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellSpec":
        return cls(
            scenario=str(data["scenario"]),
            partitioner=str(data["partitioner"]),
            seed=int(data["seed"]),
            config=dict(data.get("config", {})),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative grid a campaign executes.

    Attributes
    ----------
    name:
        Human label; also the prefix of :attr:`campaign_id`.
    scenarios / partitioners / seeds:
        The three primary grid axes (scenario names come from
        :data:`repro.runtime.experiment.CAMPAIGN_SCENARIOS`).
    configs:
        Optional fourth axis of config overrides; each entry is merged
        over :attr:`base_config` to produce one cell per combination.
    base_config:
        Config shared by every cell (iterations, procs, intervals ...).
    """

    name: str
    scenarios: tuple[str, ...]
    partitioners: tuple[str, ...]
    seeds: tuple[int, ...]
    configs: tuple[Mapping[str, Any], ...] = (
        field(default_factory=lambda: ({},))
    )
    base_config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name or ""):
            raise CampaignError(
                f"campaign name must be a [A-Za-z0-9._-] slug, got "
                f"{self.name!r}"
            )
        for axis, values in (
            ("scenarios", self.scenarios),
            ("partitioners", self.partitioners),
            ("seeds", self.seeds),
            ("configs", self.configs),
        ):
            if not values:
                raise CampaignError(f"campaign axis {axis!r} is empty")
        keys = [c.key for c in self.cells()]
        if len(keys) != len(set(keys)):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise CampaignError(
                f"campaign grid contains duplicate cells: {dupes[:3]}"
            )

    # ------------------------------------------------------------------
    def cells(self) -> tuple[CellSpec, ...]:
        """Expand the grid in deterministic nested-loop order."""
        out = []
        for scenario in self.scenarios:
            for partitioner in self.partitioners:
                for seed in self.seeds:
                    for overrides in self.configs:
                        config = {**dict(self.base_config), **dict(overrides)}
                        out.append(
                            CellSpec(
                                scenario=scenario,
                                partitioner=partitioner,
                                seed=int(seed),
                                config=config,
                            )
                        )
        return tuple(out)

    def cell_map(self) -> dict[str, CellSpec]:
        """Cell key -> :class:`CellSpec` over the whole grid.

        The serving layer uses this to list *every* cell -- pending ones
        included -- without touching the result store: coordinates are
        derivable from the spec alone.
        """
        return {c.key: c for c in self.cells()}

    @property
    def num_cells(self) -> int:
        return (
            len(self.scenarios)
            * len(self.partitioners)
            * len(self.seeds)
            * len(self.configs)
        )

    @property
    def campaign_id(self) -> str:
        """Stable identity of the whole grid: name + spec digest.

        Two specs with the same id run the same cells; the orchestrator
        refuses to resume a directory whose recorded id differs.
        """
        return f"{self.name}-{_digest(self.to_dict(), 12)}"

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "scenarios": list(self.scenarios),
            "partitioners": list(self.partitioners),
            "seeds": [int(s) for s in self.seeds],
            "configs": [dict(c) for c in self.configs],
            "base_config": dict(self.base_config),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise CampaignError(
                f"campaign spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        version = int(data.get("schema_version", SPEC_SCHEMA_VERSION))
        if version != SPEC_SCHEMA_VERSION:
            raise CampaignError(
                f"unsupported campaign spec schema version {version} "
                f"(expected {SPEC_SCHEMA_VERSION})"
            )
        missing = {"name", "scenarios", "partitioners", "seeds"} - set(data)
        if missing:
            raise CampaignError(
                f"campaign spec is missing fields: {sorted(missing)}"
            )
        configs: Sequence[Mapping[str, Any]] = data.get("configs") or ({},)
        try:
            return cls(
                name=str(data["name"]),
                scenarios=tuple(str(s) for s in data["scenarios"]),
                partitioners=tuple(str(p) for p in data["partitioners"]),
                seeds=tuple(int(s) for s in data["seeds"]),
                configs=tuple(dict(c) for c in configs),
                base_config=dict(data.get("base_config", {})),
            )
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"malformed campaign spec: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        """Load a spec from a JSON file, with one-line errors on failure."""
        path = Path(path)
        if not path.is_file():
            raise CampaignError(f"campaign spec file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise CampaignError(
                f"could not parse campaign spec {path}: {exc}"
            ) from exc
        return cls.from_dict(data)
