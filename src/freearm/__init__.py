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

__version__ = "0.1.0"
