"""Exact pure-state verification of the linked-state protocol at desk scale.

States are dense complex amplitude vectors over a labeled set of two-level
photonic degrees of freedom (path or polarization of a named photon),
stacked along a leading branch axis: a :class:`PureState` holds one vector
per measurement branch, and a single state is a stack of one.  The protocol
is a short list of measurement events: a weave (conditional phase on two
free arms, x-measure both, Z fix-ups), the failure or disconnection of an
arm (z-measure, Z fix-up) and the Bell teleport that moves data along a
chain.  Each event is one call of :meth:`PureState.measure` with a basis
matrix (``Z_BASIS``, ``X_BASIS`` or ``BELL_BASIS``).  It returns one
:class:`Branches` record: every outcome of every input branch as one stacked
state, with outcome, probability and parent-branch arrays, and the event's
outcome-dependent corrections applied as one stack of per-branch 2x2
matrices.

Logical programs are verified by composition, never as a whole state.  The
conditional-phase gadget is checked once per program, as a channel: its 64
branches run as one stack on a fixed 4-label Choi input (each carrier
entangled with an untouched reference qubit), which covers every input and,
every placement being the same channel up to relabelling, every gadget.
Rotations are local unitaries on the carriers between gadgets, so the
checked gadget composes to the ideal circuit for every choice of rotations
and inputs: a program is only its gate layout, nothing is executed, and
only generating and printing a layout grow with its size.  Measured
degrees of freedom are removed immediately, so every state stays within the
``DOF_CAP`` label cap.  All operations return new states.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analytics import InputError

PATH = "path"
POL = "pol"

DOF_CAP = 20

SQ2 = math.sqrt(2.0)


class StateError(Exception):
    pass


class ArmNotFreeError(StateError):
    pass


class CapExceededError(StateError):
    pass


class NonNormalizedError(StateError):
    pass


class ChainTooShortError(StateError, InputError):
    pass


class MalformedProgramError(StateError, InputError):
    pass


class Dof(NamedTuple):
    """One two-level degree of freedom of a named photon; build one with
    :func:`path`, :func:`pol` or :func:`arm`.

    ``photon`` is the position along the chain; ``primed`` marks a free-arm
    photon, which only ever exposes a path degree of freedom.  Labels compare
    and sort as tuples of their fields.
    """

    chain: str
    photon: int
    primed: bool
    kind: str


def path(chain: str, photon: int) -> Dof:
    return Dof(chain, photon, False, PATH)


def pol(chain: str, photon: int) -> Dof:
    return Dof(chain, photon, False, POL)


def arm(chain: str, photon: int) -> Dof:
    return Dof(chain, photon, True, PATH)


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Measurement bases, one row per outcome.  Z and X outcome 0 is |0> and |+>;
# Bell row k is (|0, x> + (-1)^z |1, 1-x>)/sqrt(2) with (x, z) = (k >> 1, k & 1).
Z_BASIS = np.eye(2, dtype=complex)
X_BASIS = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2
BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1],
                       [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex) / SQ2

# Corrections indexed by an array of outcomes: Z^k, and Z^z X^x for Bell row k
_Z_POW = np.array([np.eye(2), _Z])
_BELL_FIX = np.array([np.eye(2), _Z, _X, _Z @ _X])


def _norm2(v: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a complex array: one einsum over the real
    and imaginary parts, which unlike BLAS ``vdot`` runs on one thread."""
    parts = np.ascontiguousarray(v).view(np.float64)
    return np.einsum("...i,...i->...", parts, parts)


class PureState:
    """A stack of labeled multi-qubit amplitude vectors, one row of ``vec``
    per branch; labels are kept in canonical order."""

    __slots__ = ("labels", "vec")

    def __init__(self, labels, vec, _checked: bool = False):
        labels = tuple(labels)
        vec = np.asarray(vec, dtype=complex)
        if not _checked:
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate degree-of-freedom labels")
            if len(labels) > DOF_CAP:
                raise CapExceededError(f"{len(labels)} labels exceeds cap {DOF_CAP}")
            if vec.ndim not in (1, 2) or vec.shape[-1] != 1 << len(labels):
                raise ValueError("amplitude vector length does not match label count")
            vec = vec.reshape(-1, vec.shape[-1])
            order = sorted(range(len(labels)), key=lambda i: labels[i])
            if order != list(range(len(labels))):
                grid = vec.reshape([len(vec)] + [2] * len(labels))
                vec = grid.transpose([0] + [i + 1 for i in order]).reshape(len(vec), -1)
                labels = tuple(labels[i] for i in order)
            if np.abs(_norm2(vec) - 1.0).max() > 1e-9:
                raise NonNormalizedError("state is not normalized")
        self.labels = labels
        self.vec = vec.reshape(-1, 1 << len(labels))

    # -- basic queries -----------------------------------------------------

    def axis(self, dof: Dof) -> int:
        """Position of ``dof`` among the labels (the branch axis not counted)."""
        try:
            return self.labels.index(dof)
        except ValueError:
            raise StateError(f"unknown degree of freedom {dof}") from None

    def _grid(self) -> np.ndarray:
        return self.vec.reshape([len(self.vec)] + [2] * len(self.labels))

    # -- construction ------------------------------------------------------

    def tensor(self, other: "PureState") -> "PureState":
        """Branch-wise tensor product; a stack of one pairs with every branch."""
        if set(self.labels) & set(other.labels):
            raise ValueError("tensor factors share labels")
        if len(self.labels) + len(other.labels) > DOF_CAP:
            raise CapExceededError(f"tensor product of {len(self.labels)} and "
                                   f"{len(other.labels)} labels exceeds cap {DOF_CAP}")
        vec = self.vec[:, :, None] * other.vec[:, None, :]
        return PureState(self.labels + other.labels, vec.reshape(len(vec), -1))

    # -- unitaries ---------------------------------------------------------

    def apply_one(self, dof: Dof, u: np.ndarray) -> "PureState":
        """Apply the 2x2 matrix ``u`` to ``dof`` on every branch, or row i of
        a stack of matrices to branch i."""
        u = np.asarray(u).reshape(-1, 2, 2, 1, 1)
        # (branch, before, 2, after) view: row i of u mixes the two slices of the axis
        g = self.vec.reshape(len(self.vec), 1 << self.axis(dof), 2, -1)
        out = np.empty_like(g)
        out[:, :, 0] = u[:, 0, 0] * g[:, :, 0] + u[:, 0, 1] * g[:, :, 1]
        out[:, :, 1] = u[:, 1, 0] * g[:, :, 0] + u[:, 1, 1] * g[:, :, 1]
        return PureState(self.labels, out.reshape(len(out), -1), _checked=True)

    def apply_cz(self, a: Dof, b: Dof) -> "PureState":
        if a == b:
            raise ValueError("conditional phase needs two distinct labels")
        ia, ib = self.axis(a), self.axis(b)
        grid = self._grid().copy()
        idx = [slice(None)] * (len(self.labels) + 1)
        idx[ia + 1] = 1
        idx[ib + 1] = 1
        grid[tuple(idx)] *= -1
        return PureState(self.labels, grid.reshape(len(grid), -1), _checked=True)

    # -- measurement -------------------------------------------------------

    def measure(self, dofs, basis: np.ndarray) -> "Branches":
        """Project the labels ``dofs`` of every branch onto the rows of ``basis``.

        Row k of the basis matrix is outcome k.  Each branch is renormalized
        and the measured labels are removed; zero-probability branches are
        dropped.
        """
        rest = tuple(l for l in self.labels if l not in dofs)
        # (branch, outcome, rest) flattened: rows follow branches, then outcomes
        comp = (basis.conj() @ self._matrix(dofs)).reshape(-1, 1 << len(rest))
        prob = _norm2(comp)
        keep = np.flatnonzero(prob >= 1e-14)
        prob = prob[keep]
        state = PureState(rest, comp[keep] / np.sqrt(prob)[:, None], _checked=True)
        return Branches(keep % len(basis), prob, state, keep // len(basis))

    # -- comparison --------------------------------------------------------

    def overlap(self, other: "PureState") -> np.ndarray:
        """<other|self> branch by branch; a stack of one pairs with every branch."""
        if self.labels != other.labels:
            raise StateError(f"label sets differ: {self.labels} vs {other.labels}")
        return np.einsum("...i,...i->...", other.vec.conj(), self.vec)

    def fidelity(self, other: "PureState") -> np.ndarray:
        return np.abs(self.overlap(other)) ** 2

    def _matrix(self, subset) -> np.ndarray:
        """Each branch's amplitudes as a (subset | rest) matrix; rows follow ``subset``."""
        axes = [self.axis(d) + 1 for d in subset]
        others = [i for i in range(1, len(self.labels) + 1) if i not in axes]
        grid = self._grid().transpose([0] + axes + others)
        return grid.reshape(len(self.vec), 1 << len(axes), -1)

    def schmidt_coefficients(self, subset) -> np.ndarray:
        """Singular values of each branch's bipartition (subset | rest)."""
        return np.linalg.svd(self._matrix(subset), compute_uv=False)

    def relabel(self, mapping: dict[Dof, Dof]) -> "PureState":
        new = tuple(mapping.get(l, l) for l in self.labels)
        return PureState(new, self.vec)


@dataclass(frozen=True)
class Branches:
    """Every outcome of a measurement event on every input branch, stacked.

    Row i is outcome ``outcome[i]`` of input branch ``parent[i]``, with its
    probability given that input and branch i of ``state``, the event's
    corrections applied.  An outcome is a row of the measured basis, or a
    pair for a weave (the two arms) and a Bell teleport (x, z).  Rows follow
    the input branches, then the outcomes.
    """

    outcome: np.ndarray
    probability: np.ndarray
    state: PureState
    parent: np.ndarray

    def __len__(self) -> int:
        return len(self.probability)

    def then(self, later: "Branches") -> "Branches":
        """Chains ``later``, an event on this state: parent outcomes and probability first."""
        return Branches(np.column_stack([self.outcome[later.parent], later.outcome]),
                        self.probability[later.parent] * later.probability, later.state,
                        self.parent[later.parent])


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


def _require_arm(state: PureState, dof: Dof) -> None:
    state.axis(dof)
    if not (dof.primed and dof.kind == PATH):
        raise ArmNotFreeError(f"{dof} is not a free-arm path degree of freedom")


def weave(state_a: PureState, state_b: PureState, arm_a: Dof, arm_b: Dof) -> Branches:
    """Entangle two chains through their free arms.

    Applies a conditional phase to the two arms, x-measures both, and applies
    the outcome-dependent local phase fix-up: Z on the a-side link if the
    b-arm came out minus, Z on the b-side link if the a-arm came out minus.
    Every corrected branch then carries the four-photon entangled unit needed
    for a logical conditional-phase gate.
    """
    return weave_joint(state_a.tensor(state_b), arm_a, arm_b)


def weave_joint(joint: PureState, arm_a: Dof, arm_b: Dof) -> Branches:
    """Weave two arms that already live in one joint state; the outcome is
    the pair of x-basis outcomes on (arm_a, arm_b), 0 meaning plus."""
    _require_arm(joint, arm_a)
    _require_arm(joint, arm_b)
    ma = joint.apply_cz(arm_a, arm_b).measure((arm_a,), X_BASIS)
    w = ma.then(ma.state.measure((arm_b,), X_BASIS))
    out = w.state.apply_one(pol(arm_a.chain, arm_a.photon), _Z_POW[w.outcome[:, 1]])
    return replace(w, state=out.apply_one(pol(arm_b.chain, arm_b.photon), _Z_POW[w.outcome[:, 0]]))


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


def disconnect_arm(state: PureState, arm_dof: Dof) -> Branches:
    """Remove an unused free arm by a z-basis measurement.

    The arm is |+> or |-> depending on the link sector, so an x measurement
    would read the link out and break it; a z measurement leaves the link
    maximally entangled (this is also the failure path).  Outcome 1 flips the
    sign of the link's |11> term, fixed by a Z on the link polarization.
    """
    _require_arm(state, arm_dof)
    m = state.measure((arm_dof,), Z_BASIS)
    return replace(m, state=m.state.apply_one(pol(arm_dof.chain, arm_dof.photon),
                                              _Z_POW[m.outcome]))


# ---------------------------------------------------------------------------
# Evolution: teleportation and logical programs
# ---------------------------------------------------------------------------


def bell_teleport(state: PureState, chain: str, photon: int) -> Branches:
    """Bell-measure (path, pol) of the data carrier ``photon``.

    Outcome (x, z) leaves X^x Z^z (data) on the next photon's polarization;
    each branch has Z^z X^x applied there, so it carries the data.
    """
    m = state.measure((path(chain, photon), pol(chain, photon)), BELL_BASIS)
    return Branches(np.stack([m.outcome >> 1, m.outcome & 1], axis=1), m.probability,
                    m.state.apply_one(pol(chain, photon + 1), _BELL_FIX[m.outcome]),
                    m.parent)


@dataclass(frozen=True)
class Rotation:
    """A single-qubit gate's place in a layout; the verdict holds for every
    choice of its matrix."""

    qubit: str


@dataclass(frozen=True)
class Cphase:
    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise MalformedProgramError("conditional phase needs two distinct qubits")


@dataclass(frozen=True)
class Program:
    """A logical circuit's gate layout: named qubits and a gate list.  The
    verdict holds for every choice of rotation matrices and input states."""

    qubits: tuple[str, ...]
    ops: tuple

    def __post_init__(self):
        names = set(self.qubits)
        if len(names) != len(self.qubits) or not self.qubits:
            raise MalformedProgramError("qubit names must be non-empty and unique")
        for op in self.ops:
            if not isinstance(op, (Rotation, Cphase)):
                raise MalformedProgramError(f"unknown operation {op!r}")
            targets = (op.qubit,) if isinstance(op, Rotation) else (op.a, op.b)
            for t in targets:
                if t not in names:
                    raise MalformedProgramError(f"gate targets undeclared qubit {t!r}")


# |Phi>|Phi> on (carrier, reference, carrier, reference), |Phi> = (|00> + |11>)/sqrt(2)
_PHI_PHI = np.kron([1, 0, 0, 1], [1, 0, 0, 1]) / 2


@dataclass
class EvolveReport:
    branch_count: int
    min_fidelity: float
    probability_sum: float


def _cphase_branches(state: PureState, a: str, ca: int, b: str, cb: int) -> Branches:
    """The 64 measurement branches of one conditional-phase gadget on
    carriers ``ca`` and ``cb``, as one stack per input branch.

    The gadget weaves the next links of both chains and teleports both data
    carriers forward through the woven photons, applying every
    measurement-dependent correction.  A branch's outcome is (weave a,
    weave b, x_a, z_a, x_b, z_b) and its probability that of the whole path.
    """
    pulled = state.tensor(bracket_state(a, ca)).tensor(bracket_state(b, cb))
    w = weave_joint(pulled, arm(a, ca + 1), arm(b, cb + 1))
    ta = bell_teleport(w.state, a, ca)
    # an X byproduct commuted through the woven conditional phase picks up a
    # Z on the partner chain
    tb = bell_teleport(ta.state.apply_one(pol(b, cb + 1), _Z_POW[ta.outcome[:, 0]]), b, cb)
    leaves = w.then(ta).then(tb)
    return replace(leaves, state=tb.state.apply_one(pol(a, ca + 1), _Z_POW[tb.outcome[:, 0]]))


def evolve_program(program: Program, links_per_qubit: int) -> EvolveReport:
    """Verify a logical program on the linked-state protocol by composing
    one checked gadget.

    Each qubit owns a chain; a conditional-phase gate weaves the next links of
    the two chains and teleports both data carriers forward.  A rotation, of
    any matrix, acts on the current carrier polarization.

    The gadget is checked once per program, as a channel, at fixed labels
    (chains ``"a"`` and ``"b"``, carrier 1): every placement is the same
    channel up to relabelling.  Its 64 branches run as one stack on the Choi
    state |Phi>|Phi> that pairs each carrier with a reference label
    ``pol(q, 0)`` no gadget touches, and each is compared with the
    conditional phase applied to that state and moved onto the new carriers.
    A branch map K is fixed by its image of |Phi>|Phi> (Choi-Jamiolkowski),
    so fidelity 1 on every branch with probabilities summing to 1 means
    every branch map is proportional to the conditional phase on every
    input, and every branch of the program equals the ideal circuit up to a
    scalar.  The report counts the 64^c branches so covered, their total
    probability (the gadget's sum to the power c) and the gadget's least
    branch fidelity; with c = 0 no check runs and they are 1, 1.0 and 1.0.
    Only generating and printing the layout grow with c, not this check.
    """
    uses = Counter(q for op in program.ops if isinstance(op, Cphase) for q in (op.a, op.b))
    for q in program.qubits:
        if uses[q] > links_per_qubit:
            raise ChainTooShortError(f"qubit {q} needs {uses[q]} links, has {links_per_qubit}")
    c = uses.total() // 2
    if not c:
        return EvolveReport(branch_count=1, min_fidelity=1.0, probability_sum=1.0)
    x, y = pol("a", 1), pol("b", 1)
    choi = PureState((x, pol("a", 0), y, pol("b", 0)), _PHI_PHI)
    want = choi.apply_cz(x, y).relabel({x: pol("a", 2), y: pol("b", 2)})
    leaves = _cphase_branches(choi, "a", 1, "b", 1)
    # the sum adds left to right in branch order, the product gadget by gadget
    gadget_sum = float(np.cumsum(leaves.probability)[-1])
    return EvolveReport(branch_count=len(leaves) ** c,
                        min_fidelity=float(leaves.state.fidelity(want).min()),
                        probability_sum=math.prod([gadget_sum] * c))


# ---------------------------------------------------------------------------
# Layout serialization and random layout generation
# ---------------------------------------------------------------------------


def program_to_json(program: Program) -> dict:
    gates = [{"type": "unitary", "qubit": op.qubit} if isinstance(op, Rotation)
             else {"type": "cphase", "qubits": [op.a, op.b]} for op in program.ops]
    return {"qubits": list(program.qubits), "gates": gates}


def random_program(n_qubits: int, n_cphases: int, n_rotations: int,
                   rng: np.random.Generator) -> Program:
    """Seeded random layout: rotation places and conditional phases interleaved."""
    qubits = tuple(f"q{i}" for i in range(n_qubits))
    ops = [Rotation(qubits[int(rng.integers(n_qubits))]) for _ in range(n_rotations)]
    for _ in range(n_cphases):
        if n_qubits < 2:
            raise MalformedProgramError("conditional phase needs at least two qubits")
        a, b = rng.choice(n_qubits, size=2, replace=False)
        ops.append(Cphase(qubits[int(a)], qubits[int(b)]))
    rng.shuffle(ops)
    return Program(qubits, tuple(ops))
