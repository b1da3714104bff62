"""Scenario configuration: every knob of the simulation with its default,
JSON (de)serialization, and validation that enumerates every bad field."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
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
    fov_half_angle_deg: float = 45.0
    keyframe_threshold: float = 5.0
    snapshot_period_ticks: int = 100
    waypoints: list[list[float]] | None = None  # default: boustrophedon sweep
    loop: bool = True
    sweep_margin: float = 10.0


@dataclass
class GroundConfig:
    v_max: float = 2.0
    yaw_rate_max: float = 1.5
    scan_beams: int = 36
    scan_max_range: float = 15.0
    scan_period_ticks: int = 4
    odom_sigma: tuple[float, float, float] = (0.05, 0.05, 0.01)
    start_spacing: float = 3.0
    local_grid_side: float = 30.0


@dataclass
class LocalizerConfig:
    n_particles: int = 500
    init_spread: tuple[float, float, float] = (16.0, 16.0, 0.3)
    init_error: float = 16.0
    unknown_cost: float = 0.4
    temperature: float = 0.2
    ess_fraction: float = 0.5
    azimuth_bins: int = 36
    range_bins: int = 10
    process_noise: tuple[float, float, float] = (0.05, 0.05, 0.01)


@dataclass
class PlannerConfig:
    close_radius: int = 0
    node_radius: float = 25.0
    lam: float = 1.0
    clearance_penalty: str = "verbatim"


@dataclass
class TrackerConfig:
    k_yaw: float = 2.0
    align_threshold: float = 0.6
    arrival_tolerance: float = 1.5
    search_radius: float = 3.0


@dataclass
class MissionSpec:
    mode: str = "region_investigation"  # or "waypoint"
    cluster_radius: float = 3.0
    dilation_radius: float = 5.0
    visit_radius: float = 5.0
    reselect_period: int = 100
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
    start_yaw: float = 1.5707963267948966
    initial_map: str = "none"  # "full" preloads a truth snapshot everywhere
    aerial: AerialConfig = field(default_factory=AerialConfig)
    ground: GroundConfig = field(default_factory=GroundConfig)
    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    mission: MissionSpec = field(default_factory=MissionSpec)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        problems: list[str] = []
        sections = {
            "aerial": AerialConfig,
            "ground": GroundConfig,
            "localizer": LocalizerConfig,
            "planner": PlannerConfig,
            "tracker": TrackerConfig,
            "mission": MissionSpec,
        }
        kwargs = {}
        top_fields = {f for f in cls.__dataclass_fields__}
        for key, value in data.items():
            if key not in top_fields:
                problems.append(f"unknown field {key!r}")
                continue
            if key in sections:
                if not isinstance(value, dict):
                    problems.append(f"{key} must be an object, got {type(value).__name__}")
                    continue
                sec_cls = sections[key]
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
        """Check every numeric range; report all problems at once."""
        p: list[str] = []

        def positive(name, value):
            if not value > 0:
                p.append(f"{name} must be > 0, got {value}")

        def non_negative(name, value):
            if not value >= 0:
                p.append(f"{name} must be >= 0, got {value}")

        def non_negative_components(name, values):
            if any(v < 0 for v in values):
                p.append(f"{name} components must be >= 0, got {values}")

        positive("tick_seconds", self.tick_seconds)
        positive("max_ticks", self.max_ticks)
        non_negative("n_ground", self.n_ground)
        non_negative("n_aerial", self.n_aerial)
        non_negative("comm_range", self.comm_range)
        if self.n_aerial > 1:
            p.append(f"n_aerial must be 0 or 1 (single aerial robot), got {self.n_aerial}")
        if self.initial_map not in ("none", "full"):
            p.append(f"initial_map must be 'none' or 'full', got {self.initial_map!r}")

        positive("aerial.altitude", self.aerial.altitude)
        positive("aerial.speed", self.aerial.speed)
        if not 0 < self.aerial.fov_half_angle_deg < 90:
            p.append(f"aerial.fov_half_angle_deg must be in (0, 90), got {self.aerial.fov_half_angle_deg}")
        positive("aerial.keyframe_threshold", self.aerial.keyframe_threshold)
        positive("aerial.snapshot_period_ticks", self.aerial.snapshot_period_ticks)

        positive("ground.v_max", self.ground.v_max)
        positive("ground.yaw_rate_max", self.ground.yaw_rate_max)
        positive("ground.scan_beams", self.ground.scan_beams)
        positive("ground.scan_max_range", self.ground.scan_max_range)
        positive("ground.scan_period_ticks", self.ground.scan_period_ticks)
        non_negative_components("ground.odom_sigma", self.ground.odom_sigma)
        positive("ground.local_grid_side", self.ground.local_grid_side)

        positive("localizer.n_particles", self.localizer.n_particles)
        non_negative_components("localizer.init_spread", self.localizer.init_spread)
        non_negative_components("localizer.process_noise", self.localizer.process_noise)
        non_negative("localizer.init_error", self.localizer.init_error)
        non_negative("localizer.unknown_cost", self.localizer.unknown_cost)
        positive("localizer.temperature", self.localizer.temperature)
        if not 0 <= self.localizer.ess_fraction <= 1:
            p.append(f"localizer.ess_fraction must be in [0, 1], got {self.localizer.ess_fraction}")
        positive("localizer.azimuth_bins", self.localizer.azimuth_bins)
        positive("localizer.range_bins", self.localizer.range_bins)

        non_negative("planner.close_radius", self.planner.close_radius)
        positive("planner.node_radius", self.planner.node_radius)
        non_negative("planner.lam", self.planner.lam)
        if self.planner.clearance_penalty not in ("verbatim", "inverse"):
            p.append(
                "planner.clearance_penalty must be 'verbatim' or 'inverse', "
                f"got {self.planner.clearance_penalty!r}"
            )

        positive("tracker.arrival_tolerance", self.tracker.arrival_tolerance)
        positive("tracker.search_radius", self.tracker.search_radius)

        if self.mission.mode not in ("region_investigation", "waypoint"):
            p.append(f"mission.mode must be 'region_investigation' or 'waypoint', got {self.mission.mode!r}")
        positive("mission.cluster_radius", self.mission.cluster_radius)
        positive("mission.dilation_radius", self.mission.dilation_radius)
        positive("mission.visit_radius", self.mission.visit_radius)
        if self.mission.mode == "waypoint" and not self.mission.waypoints:
            p.append("mission.waypoints required in waypoint mode")

        if p:
            raise ConfigError(p)


def _tupled(value):
    if isinstance(value, list) and value and all(isinstance(v, (int, float)) for v in value):
        return tuple(value)
    return value
