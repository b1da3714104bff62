"""Desk-scale simulator for an air-ground robot team.

A single aerial robot builds a semantic ortho-map online; ground robots
localize in it with a semantic particle filter, plan over it with a
roadmap built from each map version, coordinate through a gossip-replicated
database, and investigate vehicle regions of interest. Everything runs
in a deterministic lockstep simulation driven by one master seed.
"""

from semteam.world import (
    SemanticClass,
    SemanticGridMap,
    WorldModel,
    ground_scan,
    load_world,
    save_world,
)

__version__ = "0.1.0"

__all__ = [
    "SemanticClass",
    "SemanticGridMap",
    "WorldModel",
    "ground_scan",
    "load_world",
    "save_world",
    "__version__",
]
