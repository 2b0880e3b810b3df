"""Declarative experiment specs: what to run, over which grid, how often.

A :class:`Sweep` names a scenario callable by dotted path and describes a
parameter grid, a list of root seeds and a repeat count.  ``expand()``
flattens that into :class:`RunSpec`\\ s — one per (grid point, seed,
repeat) — in a deterministic order that is independent of how the sweep
will be scheduled.

Every run has a **content-hashed id**: the SHA-256 of the canonical JSON
of ``{scenario, params, seed, repeat}``.  The id therefore identifies
*what the run computes*, never *where in the sweep it sits* — adding a
grid point or another seed leaves every existing run id (and its stored
result) valid, which is what makes the result store resumable.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from ..errors import ConfigError
from ..sim.rng import spawn_child

__all__ = ["RunSpec", "Sweep", "canonical_json", "resolve_dotted"]


def canonical_json(obj: Any) -> str:
    """Stable, whitespace-free JSON — the byte form used for hashing
    and for result-store records (so serial and parallel runs serialize
    identically)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def resolve_dotted(path: str) -> Callable:
    """Import ``pkg.mod:attr`` (or ``pkg.mod.attr``) and return it."""
    if ":" in path:
        mod_name, _, attr = path.partition(":")
    else:
        mod_name, _, attr = path.rpartition(".")
    if not mod_name or not attr:
        raise ConfigError(f"not a dotted callable path: {path!r}")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError as exc:
        raise ConfigError(f"cannot import {mod_name!r}: {exc}") from exc
    try:
        fn = getattr(mod, attr)
    except AttributeError as exc:
        raise ConfigError(f"{mod_name!r} has no attribute {attr!r}") from exc
    if not callable(fn):
        raise ConfigError(f"{path!r} is not callable")
    return fn


@dataclass(frozen=True)
class RunSpec:
    """One unit of work: a scenario invocation with fixed parameters."""

    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    repeat: int = 0

    @property
    def run_id(self) -> str:
        digest = hashlib.sha256(canonical_json({
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "repeat": self.repeat,
        }).encode("utf-8")).hexdigest()
        return digest[:16]

    @property
    def effective_seed(self) -> int:
        """Seed handed to the scenario callable.

        Repeat 0 sees the sweep's root seed unchanged (so a one-repeat
        sweep behaves exactly like calling the scenario by hand);
        further repeats get SplitMix-derived child streams instead of
        ``seed + i`` arithmetic.
        """
        if self.repeat == 0:
            return self.seed
        return spawn_child(self.seed, self.repeat)

    def resolve(self) -> Callable:
        return resolve_dotted(self.scenario)

    def to_dict(self) -> Dict[str, Any]:
        return {"scenario": self.scenario, "params": dict(self.params),
                "seed": self.seed, "repeat": self.repeat}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        return cls(scenario=data["scenario"],
                   params=dict(data.get("params", {})),
                   seed=int(data.get("seed", 0)),
                   repeat=int(data.get("repeat", 0)))


@dataclass
class Sweep:
    """A named grid of runs over one scenario callable.

    ``grid`` maps parameter names to value lists (full cross product);
    ``base`` holds constant parameters merged into every run.  ``fold``
    optionally names a ``records -> List[BenchTable]`` callable (dotted
    path) used by the merge step; without one a generic one-row-per-run
    table is built.
    """

    name: str
    scenario: str
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    base: Dict[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    repeats: int = 1
    fold: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigError("sweep needs a name")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not self.seeds:
            raise ConfigError("sweep needs at least one seed")
        overlap = set(self.base) & set(self.grid)
        if overlap:
            raise ConfigError(
                f"params both swept and fixed: {sorted(overlap)}")

    def expand(self) -> List[RunSpec]:
        """All runs, ordered grid-major → seed → repeat (deterministic
        and schedule-independent)."""
        names = sorted(self.grid)
        combos = itertools.product(*(self.grid[n] for n in names)) \
            if names else [()]
        specs = []
        for combo in combos:
            params = dict(self.base)
            params.update(zip(names, combo))
            for seed in self.seeds:
                for repeat in range(self.repeats):
                    specs.append(RunSpec(scenario=self.scenario,
                                         params=params, seed=int(seed),
                                         repeat=repeat))
        return specs

    def spec_hash(self) -> str:
        """Content hash of the whole sweep (scheduling seed + drift
        guard for resume)."""
        return hashlib.sha256(canonical_json(
            self.to_dict()).encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "grid": {k: list(v) for k, v in sorted(self.grid.items())},
            "base": dict(self.base),
            "seeds": [int(s) for s in self.seeds],
            "repeats": self.repeats,
            "fold": self.fold,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Sweep":
        """Inverse of :meth:`to_dict`; a field of the wrong shape raises
        :class:`ConfigError` naming it."""
        if not isinstance(data, dict):
            raise ConfigError(f"a sweep is a JSON object, got {data!r}")

        def get(name, kind, default=None):
            value = data.get(name, default)
            if not isinstance(value, kind) or (
                    kind is int and isinstance(value, bool)):
                raise ConfigError(f"sweep field {name!r} must be "
                                  f"{kind.__name__}, got {value!r}")
            return value

        grid = get("grid", dict, {})
        for key, values in grid.items():
            if not isinstance(values, list):
                raise ConfigError(f"sweep field 'grid.{key}' must be a "
                                  f"list, got {values!r}")
        seeds = get("seeds", list, [0])
        if not all(isinstance(s, int) for s in seeds):
            raise ConfigError(f"sweep field 'seeds' must list integers, "
                              f"got {seeds!r}")
        return cls(name=get("name", str), scenario=get("scenario", str),
                   grid=grid, base=get("base", dict, {}),
                   seeds=tuple(seeds), repeats=get("repeats", int, 1),
                   fold=get("fold", str, ""))
