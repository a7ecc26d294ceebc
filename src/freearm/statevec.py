"""Exact pure-state verification of the linked-state protocol at desk scale.

States are dense complex amplitude vectors over a labeled set of two-level
photonic degrees of freedom (path or polarization of a named photon).  The
module builds chain states, performs weaving (conditional-phase on two free
arms followed by x-basis measurements and local phase fix-ups), exercises the
failure path, teleports data along a chain via Bell measurements, and runs
whole logical programs, verifying every measurement branch of each
conditional-phase gadget, against a direct-circuit oracle.

Measured degrees of freedom are removed immediately so enumeration stays
within the label cap ``DOF_CAP``.  All operations return new states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytics import InputError

PATH = "path"
POL = "pol"

DOF_CAP = 20

SQ2 = math.sqrt(2.0)


class StateError(Exception):
    pass


class UnknownDofError(StateError):
    pass


class ArmNotFreeError(StateError):
    pass


class CapExceededError(StateError, InputError):
    pass


class LabelMismatchError(StateError):
    pass


class NonNormalizedError(StateError):
    pass


class ChainTooShortError(StateError, InputError):
    pass


class MalformedProgramError(StateError, InputError):
    pass


@dataclass(frozen=True, order=True)
class Dof:
    """One two-level degree of freedom of a named photon.

    ``photon`` is the position along the chain; ``primed`` marks a free-arm
    photon, which only ever exposes a path degree of freedom.
    """

    chain: str
    photon: int
    primed: bool
    kind: str

    def __post_init__(self):
        if self.kind not in (PATH, POL):
            raise ValueError(f"kind must be {PATH!r} or {POL!r}")
        if self.primed and self.kind != PATH:
            raise ValueError("free-arm photons expose only a path degree of freedom")


def path(chain: str, photon: int) -> Dof:
    return Dof(chain, photon, False, PATH)


def pol(chain: str, photon: int) -> Dof:
    return Dof(chain, photon, False, POL)


def arm(chain: str, photon: int) -> Dof:
    return Dof(chain, photon, True, PATH)


class Basis(Enum):
    Z = "z"
    X = "x"


@dataclass(frozen=True)
class MeasurementRecord:
    outcome: int
    probability: float


@dataclass(frozen=True)
class CorrectionFrame:
    """Accumulated Pauli correction: the branch state equals X^x Z^z (data)."""

    x: int = 0
    z: int = 0

    def apply(self, state: "PureState", dof: Dof) -> "PureState":
        out = state
        if self.x:
            out = out.apply_one(dof, _X)
        if self.z:
            out = out.apply_one(dof, _Z)
        return out


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _norm2(v: np.ndarray) -> float:
    """Squared norm of a complex vector: one einsum over its real and
    imaginary parts, which unlike BLAS ``vdot`` runs on one thread."""
    parts = np.ascontiguousarray(v).view(np.float64)
    return float(np.einsum("i,i->", parts, parts))


class PureState:
    """Labeled multi-qubit amplitude vector; labels are kept in canonical order."""

    __slots__ = ("labels", "vec")

    def __init__(self, labels, vec, _checked: bool = False):
        labels = tuple(labels)
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if not _checked:
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate degree-of-freedom labels")
            if len(labels) > DOF_CAP:
                raise CapExceededError(f"{len(labels)} labels exceeds cap {DOF_CAP}")
            if vec.size != 1 << len(labels):
                raise ValueError("amplitude vector length does not match label count")
            order = sorted(range(len(labels)), key=lambda i: labels[i])
            if order != list(range(len(labels))):
                vec = vec.reshape([2] * len(labels)).transpose(order).reshape(-1)
                labels = tuple(labels[i] for i in order)
            if abs(_norm2(vec) - 1.0) > 1e-9:
                raise NonNormalizedError("state is not normalized")
        self.labels = labels
        self.vec = vec

    # -- basic queries -----------------------------------------------------

    def axis(self, dof: Dof) -> int:
        try:
            return self.labels.index(dof)
        except ValueError:
            raise UnknownDofError(f"unknown degree of freedom {dof}") from None

    def norm(self) -> float:
        return math.sqrt(_norm2(self.vec))

    def _grid(self) -> np.ndarray:
        return self.vec.reshape([2] * len(self.labels))

    # -- construction ------------------------------------------------------

    def tensor(self, other: "PureState") -> "PureState":
        if set(self.labels) & set(other.labels):
            raise ValueError("tensor factors share labels")
        if len(self.labels) + len(other.labels) > DOF_CAP:
            raise CapExceededError(f"tensor product of {len(self.labels)} and "
                                   f"{len(other.labels)} labels exceeds cap {DOF_CAP}")
        return PureState(self.labels + other.labels,
                         np.kron(self.vec, other.vec))

    # -- unitaries ---------------------------------------------------------

    def apply_one(self, dof: Dof, u: np.ndarray) -> "PureState":
        # (before, 2, after) view: row i of u mixes the two slices of the axis
        g = self.vec.reshape(1 << self.axis(dof), 2, -1)
        out = np.empty_like(g)
        out[:, 0] = u[0, 0] * g[:, 0] + u[0, 1] * g[:, 1]
        out[:, 1] = u[1, 0] * g[:, 0] + u[1, 1] * g[:, 1]
        return PureState(self.labels, out.reshape(-1), _checked=True)

    def apply_cz(self, a: Dof, b: Dof) -> "PureState":
        if a == b:
            raise ValueError("conditional phase needs two distinct labels")
        ia, ib = self.axis(a), self.axis(b)
        grid = self._grid().copy()
        idx = [slice(None)] * len(self.labels)
        idx[ia] = 1
        idx[ib] = 1
        grid[tuple(idx)] *= -1
        return PureState(self.labels, grid.reshape(-1), _checked=True)

    # -- measurement -------------------------------------------------------

    def _components(self, dof: Dof) -> tuple[np.ndarray, np.ndarray, tuple[Dof, ...]]:
        ax = self.axis(dof)
        grid = np.moveaxis(self._grid(), ax, 0)
        rest = tuple(l for l in self.labels if l != dof)
        return grid[0].reshape(-1), grid[1].reshape(-1), rest

    def measure(self, dof: Dof, basis: Basis) -> list[tuple[MeasurementRecord, "PureState"]]:
        """Enumerate both outcomes of a z- or x-basis measurement of ``dof``.

        Each branch is renormalized and the measured label is removed.
        Zero-probability branches are dropped.
        """
        c0, c1, rest = self._components(dof)
        comps = [c0, c1] if basis is Basis.Z else [(c0 + c1) / SQ2, (c0 - c1) / SQ2]
        branches = []
        for outcome, comp in enumerate(comps):
            prob = _norm2(comp)
            if prob < 1e-14:
                continue
            state = PureState(rest, comp / math.sqrt(prob), _checked=True)
            branches.append((MeasurementRecord(outcome, prob), state))
        return branches

    def measure_bell(self, a: Dof, b: Dof) -> list[tuple[tuple[int, int], float, "PureState"]]:
        """Project the pair (a, b) onto the four Bell states.

        Outcomes are labeled (x, z): the projectors are
        (|0, x> + (-1)^z |1, 1-x>)/sqrt(2).
        """
        ia, ib = self.axis(a), self.axis(b)
        grid = self._grid()
        grid = np.moveaxis(grid, (ia, ib), (0, 1))
        rest = tuple(l for l in self.labels if l not in (a, b))
        c = {(i, j): grid[i, j].reshape(-1) for i in (0, 1) for j in (0, 1)}
        branches = []
        for x in (0, 1):
            for z in (0, 1):
                comp = (c[(0, x)] + (-1) ** z * c[(1, 1 - x)]) / SQ2
                prob = _norm2(comp)
                if prob < 1e-14:
                    continue
                state = PureState(rest, comp / math.sqrt(prob), _checked=True)
                branches.append(((x, z), prob, state))
        return branches

    # -- comparison --------------------------------------------------------

    def overlap(self, other: "PureState") -> complex:
        if self.labels != other.labels:
            raise LabelMismatchError(
                f"label sets differ: {self.labels} vs {other.labels}")
        return complex(np.einsum("i,i->", other.vec.conj(), self.vec))

    def fidelity(self, other: "PureState") -> float:
        return abs(self.overlap(other)) ** 2

    def schmidt_coefficients(self, subset) -> np.ndarray:
        """Singular values of the bipartition (subset | rest)."""
        subset = list(subset)
        axes = [self.axis(d) for d in subset]
        others = [i for i in range(len(self.labels)) if i not in axes]
        mat = self._grid().transpose(axes + others).reshape(1 << len(axes), -1)
        return np.linalg.svd(mat, compute_uv=False)

    def relabel(self, mapping: dict[Dof, Dof]) -> "PureState":
        new = tuple(mapping.get(l, l) for l in self.labels)
        return PureState(new, self.vec)


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, invariant under global phase; labels must match."""
    return a.fidelity(b)


# ---------------------------------------------------------------------------
# Chain states
# ---------------------------------------------------------------------------


def data_state(chain: str, photon: int, alpha: complex, beta: complex) -> PureState:
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise NonNormalizedError("data amplitudes must satisfy |a|^2 + |b|^2 = 1")
    return PureState((pol(chain, photon),), [alpha, beta])


def bracket_state(chain: str, link: int) -> PureState:
    """One chain link: path of photon ``link`` with the polarization and free
    arm of photon ``link+1`` in the three-party correlated state
    (|0, 0, +> + |1, 1, ->)/sqrt(2)."""
    labels = (path(chain, link), pol(chain, link + 1), arm(chain, link + 1))
    vec = np.zeros(8, dtype=complex)
    # (a, b, r) indices: |a>_path |b>_pol (|0>+(-1)^b |1>)_arm / 2
    vec[0b000] = vec[0b001] = 0.5
    vec[0b110] = 0.5
    vec[0b111] = -0.5
    return PureState(labels, vec)


def build_chain_state(links: int, data: tuple[complex, complex], chain: str = "p"
                      ) -> PureState:
    """Full chain of ``links`` links with the data on the first polarization.

    The final linked photon's path (fixed to |0>) is separable and omitted
    from the label set, so the state has 3*links + 1 degrees of freedom.
    """
    if links < 1:
        raise ValueError("a chain needs at least one link")
    state = data_state(chain, 1, data[0], data[1])
    for i in range(1, links + 1):
        state = state.tensor(bracket_state(chain, i))
    return state


# ---------------------------------------------------------------------------
# Weaving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeaveBranch:
    outcomes: tuple[int, int]  # x-basis outcomes on (armA, armB); 0 = plus
    probability: float
    state: PureState


def _require_arm(state: PureState, dof: Dof) -> None:
    state.axis(dof)
    if not (dof.primed and dof.kind == PATH):
        raise ArmNotFreeError(f"{dof} is not a free-arm path degree of freedom")


def weave(state_a: PureState, state_b: PureState, arm_a: Dof, arm_b: Dof) -> list[WeaveBranch]:
    """Entangle two chains through their free arms.

    Applies a conditional phase to the two arms, x-measures both, and applies
    the outcome-dependent local phase fix-up: Z on the a-side link if the
    b-arm came out minus, Z on the b-side link if the a-arm came out minus.
    Every corrected branch then carries the four-photon entangled unit needed
    for a logical conditional-phase gate.
    """
    _require_arm(state_a, arm_a)
    _require_arm(state_b, arm_b)
    joint = state_a.tensor(state_b)
    return weave_joint(joint, arm_a, arm_b)


def weave_joint(joint: PureState, arm_a: Dof, arm_b: Dof) -> list[WeaveBranch]:
    """Weave two arms that already live in one joint state."""
    _require_arm(joint, arm_a)
    _require_arm(joint, arm_b)
    woven = joint.apply_cz(arm_a, arm_b)
    pol_a = pol(arm_a.chain, arm_a.photon)
    pol_b = pol(arm_b.chain, arm_b.photon)
    branches = []
    for rec_a, after_a in woven.measure(arm_a, Basis.X):
        for rec_b, after_b in after_a.measure(arm_b, Basis.X):
            out = after_b
            if rec_b.outcome == 1:
                out = out.apply_one(pol_a, _Z)
            if rec_a.outcome == 1:
                out = out.apply_one(pol_b, _Z)
            branches.append(WeaveBranch(
                outcomes=(rec_a.outcome, rec_b.outcome),
                probability=rec_a.probability * rec_b.probability,
                state=out,
            ))
    return branches


def woven_target(chain_a: str, photon_a: int, chain_b: str, photon_b: int) -> PureState:
    """The desired post-weave state of the four remaining link DOFs:
    sum_{a,b} (-1)^{ab} |a>_pathA |a>_polA |b>_pathB |b>_polB / 2."""
    labels = (path(chain_a, photon_a - 1), pol(chain_a, photon_a),
              path(chain_b, photon_b - 1), pol(chain_b, photon_b))
    vec = np.zeros(16, dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            vec[a << 3 | a << 2 | b << 1 | b] = 0.5 * (-1) ** (a * b)
    return PureState(labels, vec)


def fail_weave(state: PureState, arm_dof: Dof) -> list[tuple[MeasurementRecord, PureState]]:
    """Failure path: the arm is measured in the z basis.

    Both outcomes leave the parent link maximally entangled, so the chain
    still transmits data.
    """
    _require_arm(state, arm_dof)
    return state.measure(arm_dof, Basis.Z)


# ---------------------------------------------------------------------------
# Evolution: teleportation and logical programs
# ---------------------------------------------------------------------------


def disconnect_arm(state: PureState, arm_dof: Dof) -> list[tuple[MeasurementRecord, PureState]]:
    """Remove an unused free arm by a z-basis measurement.

    The arm is |+> or |-> depending on the link sector, so an x measurement
    would read the link out and break it; a z measurement leaves the link
    maximally entangled (this is also the failure path).  Outcome 1 flips the
    sign of the link's |11> term, fixed by a Z on the link polarization.
    """
    _require_arm(state, arm_dof)
    pol_dof = pol(arm_dof.chain, arm_dof.photon)
    branches = []
    for rec, st in state.measure(arm_dof, Basis.Z):
        if rec.outcome == 1:
            st = st.apply_one(pol_dof, _Z)
        branches.append((rec, st))
    return branches


def bell_teleport(state: PureState, chain: str, photon: int
                  ) -> list[tuple[MeasurementRecord, PureState, CorrectionFrame]]:
    """Bell-measure (path, pol) of the data carrier ``photon``.

    In every branch the data reappears on the next photon's polarization as
    X^x Z^z (data); the returned frame undoes it (apply X^x, then Z^z).
    """
    p_dof, d_dof = path(chain, photon), pol(chain, photon)
    state.axis(p_dof)
    state.axis(d_dof)
    branches = []
    for (x, z), prob, st in state.measure_bell(p_dof, d_dof):
        rec = MeasurementRecord(x << 1 | z, prob)
        branches.append((rec, st, CorrectionFrame(x=x, z=z)))
    return branches


@dataclass(frozen=True)
class Rotation:
    qubit: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2) or np.abs(m @ m.conj().T - np.eye(2)).max() > 1e-10:
            raise MalformedProgramError("rotation matrix must be 2x2 unitary (tol 1e-10)")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Cphase:
    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise MalformedProgramError("conditional phase needs two distinct qubits")


@dataclass(frozen=True)
class Program:
    """A logical circuit: named qubits, input amplitudes, gate list."""

    qubits: tuple[str, ...]
    inputs: dict[str, tuple[complex, complex]]
    ops: tuple

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits) or not self.qubits:
            raise MalformedProgramError("qubit names must be non-empty and unique")
        for q in self.qubits:
            a, b = self.inputs.get(q, (1.0, 0.0))
            if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-10:
                raise MalformedProgramError(f"input for {q} is not normalized")
        for op in self.ops:
            targets = (op.qubit,) if isinstance(op, Rotation) else (op.a, op.b)
            for t in targets:
                if t not in self.qubits:
                    raise MalformedProgramError(f"gate targets undeclared qubit {t!r}")

    def input_pair(self, q: str) -> tuple[complex, complex]:
        return self.inputs.get(q, (1.0, 0.0))

    def cphase_count(self, q: str) -> int:
        return sum(1 for op in self.ops
                   if isinstance(op, Cphase) and q in (op.a, op.b))


def ideal_circuit(program: Program) -> PureState:
    """Direct application of the program to the logical input state (oracle)."""
    n = len(program.qubits)
    index = {q: i for i, q in enumerate(program.qubits)}
    vec = np.array([1.0 + 0j])
    for q in program.qubits:
        a, b = program.input_pair(q)
        vec = np.kron(vec, np.array([a, b], dtype=complex))
    grid = vec.reshape([2] * n)
    for op in program.ops:
        if isinstance(op, Rotation):
            ax = index[op.qubit]
            grid = np.moveaxis(np.moveaxis(grid, ax, -1) @ op.matrix.T, -1, ax)
        elif isinstance(op, Cphase):
            ia, ib = index[op.a], index[op.b]
            idx = [slice(None)] * n
            idx[ia] = 1
            idx[ib] = 1
            grid = grid.copy()
            grid[tuple(idx)] *= -1
        else:
            raise MalformedProgramError(f"unknown operation {op!r}")
    labels = [pol(q, 0) for q in program.qubits]
    return PureState(labels, grid.reshape(-1))


@dataclass
class EvolveReport:
    branch_count: int
    min_fidelity: float
    probability_sum: float


def _cphase_branches(state: PureState, a: str, ca: int, b: str, cb: int):
    """Yield (probability, corrected state) for each of the 64 measurement
    branches of one conditional-phase gadget on carriers ``ca`` and ``cb``.

    The gadget weaves the next links of both chains and teleports both data
    carriers forward through the woven photons, applying every
    measurement-dependent correction.
    """
    pulled = state.tensor(bracket_state(a, ca)).tensor(bracket_state(b, cb))
    for wb in weave_joint(pulled, arm(a, ca + 1), arm(b, cb + 1)):
        for r_a, st_a, fr_a in bell_teleport(wb.state, a, ca):
            st_a = fr_a.apply(st_a, pol(a, ca + 1))
            if fr_a.x:
                # an X byproduct commuted through the woven conditional
                # phase picks up a Z on the partner chain
                st_a = st_a.apply_one(pol(b, cb + 1), _Z)
            for r_b, st_b, fr_b in bell_teleport(st_a, b, cb):
                st_b = fr_b.apply(st_b, pol(b, cb + 1))
                if fr_b.x:
                    st_b = st_b.apply_one(pol(a, ca + 1), _Z)
                yield wb.probability * r_a.probability * r_b.probability, st_b


def evolve_program(program: Program, links_per_qubit: int) -> EvolveReport:
    """Run a logical program through the linked-state protocol and verify it.

    Each qubit owns a chain; a conditional-phase gate weaves the next links of
    the two chains and teleports both data carriers forward.  Rotations act on
    the current carrier polarization.

    Each gadget is verified once: every one of its 64 branches is compared
    with ``want``, the conditional phase applied directly to the gadget's
    input and moved onto the new carriers, and the run continues from
    ``want``.  Every branch map is linear, so if each branch of each gadget
    equals the logical image of that gadget's input, every path through the
    64^c branch tree ends in the same state; the final comparison with
    :func:`ideal_circuit` ties that state to the independent oracle.  The
    report counts the 64^c branches so covered, their total probability
    (the product of the per-gadget sums) and the least fidelity seen.

    Chain links are pulled in lazily (the chain state is a product of its
    links), so the active label count stays within the cap.
    """
    for q in program.qubits:
        if program.cphase_count(q) > links_per_qubit:
            raise ChainTooShortError(
                f"qubit {q} needs {program.cphase_count(q)} links, has {links_per_qubit}")
    target = ideal_circuit(program)

    state = None
    for q in program.qubits:
        d = data_state(q, 1, *program.input_pair(q))
        state = d if state is None else state.tensor(d)
    carriers = {q: 1 for q in program.qubits}
    branch_count, prob_sum, min_fid = 1, 1.0, math.inf
    for op in program.ops:
        if isinstance(op, Rotation):
            state = state.apply_one(pol(op.qubit, carriers[op.qubit]), op.matrix)
            continue
        a, b = op.a, op.b
        ca, cb = carriers[a], carriers[b]
        want = state.apply_cz(pol(a, ca), pol(b, cb)).relabel(
            {pol(a, ca): pol(a, ca + 1), pol(b, cb): pol(b, cb + 1)})
        leaves, gadget_sum = 0, 0.0
        for prob, leaf in _cphase_branches(state, a, ca, b, cb):
            leaves += 1
            gadget_sum += prob
            min_fid = min(min_fid, leaf.fidelity(want))
        branch_count *= leaves
        prob_sum *= gadget_sum
        state = want
        carriers[a], carriers[b] = ca + 1, cb + 1
    mapping = {pol(q, carriers[q]): pol(q, 0) for q in program.qubits}
    min_fid = min(min_fid, state.relabel(mapping).fidelity(target))
    return EvolveReport(branch_count=branch_count, min_fidelity=min_fid,
                        probability_sum=prob_sum)


# ---------------------------------------------------------------------------
# Program serialization and random program generation
# ---------------------------------------------------------------------------


def program_to_json(program: Program) -> dict:
    def pair(z: complex):
        return [z.real, z.imag]

    gates = []
    for op in program.ops:
        if isinstance(op, Rotation):
            gates.append({"type": "unitary", "qubit": op.qubit,
                          "matrix": [[pair(e) for e in row] for row in op.matrix]})
        else:
            gates.append({"type": "cphase", "qubits": [op.a, op.b]})
    return {"qubits": list(program.qubits),
            "inputs": {q: [pair(a), pair(b)] for q, (a, b) in program.inputs.items()},
            "gates": gates}


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR with phase fixing."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_program(n_qubits: int, n_cphases: int, n_rotations: int,
                   rng: np.random.Generator) -> Program:
    """Seeded random program: Haar rotations and conditional phases interleaved."""
    qubits = tuple(f"q{i}" for i in range(n_qubits))
    inputs = {}
    for q in qubits:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        inputs[q] = (complex(v[0]), complex(v[1]))
    ops = [Rotation(qubits[int(rng.integers(n_qubits))], haar_unitary(rng))
           for _ in range(n_rotations)]
    for _ in range(n_cphases):
        if n_qubits < 2:
            raise MalformedProgramError("conditional phase needs at least two qubits")
        a, b = rng.choice(n_qubits, size=2, replace=False)
        ops.append(Cphase(qubits[int(a)], qubits[int(b)]))
    rng.shuffle(ops)
    return Program(qubits, inputs, tuple(ops))
