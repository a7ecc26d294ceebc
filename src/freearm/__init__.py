"""Simulator and verifier for the free-arm linked-state model of
linear-optics quantum computation.

Layers:

- :mod:`freearm.analytics` — exact rational closed forms for gate success
  probabilities and per-link / per-gate resource consumption.
- :mod:`freearm.walker` — Monte Carlo of the biased chain-construction walk,
  weave resource models, and the cluster-chain variant.
- :mod:`freearm.statevec` — exact qubit-level simulation of chain states,
  weaving and failure paths; programs are verified by checking the
  conditional-phase gadget once as a channel, then by composition.
- :mod:`freearm.fock` — photon-level (occupation-number) simulation of the
  probabilistic conditional-phase gate through the single-teleport transfer
  tensor; its sparse expansion over the full resource states is the oracle
  in ``tests/test_fock.py``.
- :mod:`freearm.cli` — command-line front end (``freearm``).
"""

__version__ = "0.1.0"
