"""Simulator and verifier for the free-arm linked-state model of
linear-optics quantum computation.

Layers:

- :mod:`freearm.analytics` — exact rational closed forms for gate success
  probabilities and per-link / per-gate resource consumption.
- :mod:`freearm.walker` — Monte Carlo of the biased chain-construction walk,
  weave resource models, and the cluster-chain variant.
- :mod:`freearm.statevec` — exact qubit-level simulation of chain states,
  weaving, failure paths, and full program evolution with per-gadget
  verification of every measurement branch against an ideal-circuit oracle.
- :mod:`freearm.fock` — photon-level (occupation-number) simulation of the
  teleportation primitives and the probabilistic conditional-phase gate.
- :mod:`freearm.cli` — command-line front end (``freearm``).
"""

from .analytics import (
    GateCost,
    NonPositiveDriftError,
    OrderOutOfRangeError,
    ResourceRates,
    attempts_per_link,
    cluster_resources_per_unit,
    cz_success,
    ftel_success,
    resources_per_gate,
    resources_per_link,
    step_back_prob,
    weave_cs_per_gate,
)
from .walker import (
    WalkParams,
    WalkStats,
    WeaveModel,
    build_chain,
    cluster_batch,
    step_frequencies,
    weave_batch,
)
from .statevec import (
    Cphase,
    Program,
    PureState,
    Rotation,
    bracket_state,
    build_chain_state,
    evolve_program,
    fail_weave,
    ideal_circuit,
    random_program,
    weave,
    woven_target,
)
from .fock import (
    FockState,
    cz_via_cs,
    f_teleport,
    fourier_matrix,
    make_cs_state,
    make_t_resource,
)

__version__ = "0.1.0"

__all__ = [
    "GateCost", "NonPositiveDriftError", "OrderOutOfRangeError", "ResourceRates",
    "attempts_per_link", "cluster_resources_per_unit", "cz_success",
    "ftel_success", "resources_per_gate", "resources_per_link",
    "step_back_prob", "weave_cs_per_gate",
    "WalkParams", "WalkStats", "WeaveModel", "build_chain", "cluster_batch",
    "step_frequencies", "weave_batch",
    "Cphase", "Program", "PureState", "Rotation",
    "bracket_state", "build_chain_state", "evolve_program", "fail_weave",
    "ideal_circuit", "random_program", "weave", "woven_target",
    "FockState", "cz_via_cs", "f_teleport", "fourier_matrix", "make_cs_state",
    "make_t_resource",
]
