"""Scenario configuration: every knob of the simulation with its default,
JSON (de)serialization, and validation that enumerates every bad field.

The robot and sensor setup is fixed: its values are constants of the
modules that read them."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Raised with the full list of invalid fields."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid config: " + "; ".join(problems))


@dataclass
class AerialConfig:
    altitude: float = 60.0
    speed: float = 10.0
    snapshot_period_ticks: int = 100


@dataclass
class LocalizerConfig:
    n_particles: int = 500
    init_spread: tuple[float, float, float] = (16.0, 16.0, 0.3)
    init_error: float = 16.0
    temperature: float = 0.2


@dataclass
class PlannerConfig:
    close_radius: int = 0


@dataclass
class MissionSpec:
    mode: str = "region_investigation"  # or "waypoint"
    cluster_radius: float = 3.0
    dilation_radius: float = 5.0
    warmup_ticks: int = 600
    waypoints: list[list[list[float]]] | None = None  # per robot, waypoint mode


@dataclass
class ScenarioConfig:
    world: str = "standard"
    seed: int = 0
    n_ground: int = 2
    n_aerial: int = 1
    comm_range: float = 60.0
    tick_seconds: float = 0.1
    max_ticks: int = 20000
    start: tuple[float, float] = (23.0, 23.0)
    initial_map: str = "none"  # "full" preloads a truth snapshot everywhere
    aerial: AerialConfig = field(default_factory=AerialConfig)
    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    mission: MissionSpec = field(default_factory=MissionSpec)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError([f"config must be an object, got {type(data).__name__}"])
        problems: list[str] = []
        kwargs = {}
        for key, value in data.items():
            f = cls.__dataclass_fields__.get(key)
            if f is None:
                problems.append(f"unknown field {key!r}")
                continue
            if f.default_factory is not MISSING:  # a section, made by its class
                if not isinstance(value, dict):
                    problems.append(f"{key} must be an object, got {type(value).__name__}")
                    continue
                sec_cls = f.default_factory
                sec_fields = set(sec_cls.__dataclass_fields__)
                sec_kwargs = {}
                for k, v in value.items():
                    if k not in sec_fields:
                        problems.append(f"unknown field {key}.{k!r}")
                    else:
                        sec_kwargs[k] = _tupled(v)
                kwargs[key] = sec_cls(**sec_kwargs)
            else:
                kwargs[key] = _tupled(value)
        cfg = cls(**kwargs)
        try:
            cfg.validate()
        except ConfigError as exc:
            problems += exc.problems
        if problems:
            raise ConfigError(problems)
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def validate(self) -> None:
        """Check every field's type and every numeric range; report all
        problems at once."""
        wrong = _type_problems(self)
        p = list(wrong.values())

        def require(name, ok, requirement):
            value = self
            for part in name.split("."):
                value = getattr(value, part)
            if name not in wrong and not ok(value):
                p.append(f"{name} {requirement}, got {value!r}")

        def positive(name):
            require(name, lambda v: v > 0, "must be > 0")

        def non_negative(name):
            require(name, lambda v: v >= 0, "must be >= 0")

        def non_negative_components(name):
            require(name, lambda v: all(c >= 0 for c in v), "components must be >= 0")

        positive("tick_seconds")
        positive("max_ticks")
        non_negative("n_ground")
        non_negative("n_aerial")
        non_negative("comm_range")
        require("n_aerial", lambda v: v <= 1, "must be 0 or 1 (single aerial robot)")
        require("initial_map", lambda v: v in ("none", "full"), "must be 'none' or 'full'")

        positive("aerial.altitude")
        positive("aerial.speed")
        positive("aerial.snapshot_period_ticks")

        positive("localizer.n_particles")
        non_negative_components("localizer.init_spread")
        non_negative("localizer.init_error")
        positive("localizer.temperature")

        non_negative("planner.close_radius")

        require(
            "mission.mode",
            lambda v: v in ("region_investigation", "waypoint"),
            "must be 'region_investigation' or 'waypoint'",
        )
        positive("mission.cluster_radius")
        positive("mission.dilation_radius")
        if self.mission.mode == "waypoint" and not self.mission.waypoints:
            p.append("mission.waypoints required in waypoint mode")

        if p:
            raise ConfigError(p)


def _is_number(v) -> bool:
    """An int or a finite float; JSON's ``NaN`` and ``Infinity`` are not numbers here."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(n: int):
    return lambda v: isinstance(v, (tuple, list)) and len(v) == n and all(map(_is_number, v))


def _points(v) -> bool:
    return isinstance(v, list) and all(map(_numbers(2), v))


# field annotation -> (accepts value, what it must be)
_TYPES = {
    "float": (_is_number, "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, float]": (_numbers(2), "a list of 2 numbers"),
    "tuple[float, float, float]": (_numbers(3), "a list of 3 numbers"),
    "list[list[list[float]]] | None": (
        lambda v: v is None or (isinstance(v, list) and all(map(_points, v))),
        "null or a list of lists of [x, y] points",
    ),
}


def _type_problems(obj, prefix: str = "") -> dict[str, str]:
    """Dotted field name -> problem, for every field whose value has the wrong type."""
    out = {}
    for f in fields(obj):
        name = prefix + f.name
        value = getattr(obj, f.name)
        if f.type not in _TYPES:  # a section
            if is_dataclass(value):
                out.update(_type_problems(value, name + "."))
            else:
                out[name] = f"{name} must be an object, got {type(value).__name__}"
        elif not _TYPES[f.type][0](value):
            out[name] = f"{name} must be {_TYPES[f.type][1]}, got {value!r}"
    return out


def _tupled(value):
    if isinstance(value, list) and value and all(isinstance(v, (int, float)) for v in value):
        return tuple(value)
    return value
