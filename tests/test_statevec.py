"""Qubit-level protocol tests: chain states, weaving, failure paths, evolution."""

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from freearm import statevec as sv
from freearm.analytics import InputError

SQ2 = math.sqrt(2)
H = np.array([[1, 1], [1, -1]]) / SQ2


def brute_force_chain(links, alpha, beta):
    """Independent construction of the chain state for a 1- or 2-link chain.

    Built directly from the definition: the data polarization tensored with
    one three-party bracket per link, each bracket being
    (|0>_path |0>_pol |+>_arm + |1>_path |1>_pol |->_arm)/sqrt(2).
    """
    plus = np.array([1, 1]) / SQ2
    minus = np.array([1, -1]) / SQ2
    bracket = (np.kron(np.kron([1, 0], [1, 0]), plus)
               + np.kron(np.kron([0, 1], [0, 1]), minus)) / SQ2
    vec = np.array([alpha, beta], dtype=complex)
    for _ in range(links):
        vec = np.kron(vec, bracket)
    return vec


class TestChainStates:
    def test_bracket_matches_definition(self):
        # labels sort as (pol p0, path p1, pol p2, arm p2); the brute-force
        # vector uses (data, path, pol, arm), the same order
        got = sv.data_state("p", 0, 1, 0).tensor(sv.bracket_state("p", 1))
        assert np.allclose(got.vec, brute_force_chain(1, 1, 0))

    @pytest.mark.parametrize("links", [1, 2])
    @pytest.mark.parametrize("data", [(1, 0), (0.6, 0.8j)])
    def test_chain_state_against_brute_force(self, links, data):
        st = sv.build_chain_state(links, data)
        order = [sv.pol("p", 1)]
        for k in range(1, links + 1):
            order += [sv.path("p", k), sv.pol("p", k + 1), sv.arm("p", k + 1)]
        perm = [st.labels.index(d) for d in order]
        reordered = st.vec.reshape([2] * len(st.labels)).transpose(perm).reshape(-1)
        assert np.allclose(reordered, brute_force_chain(links, *data))

    def test_data_state_normalization_enforced(self):
        with pytest.raises(sv.NonNormalizedError):
            sv.data_state("p", 1, 1, 1)

    def test_label_cap_enforced(self):
        with pytest.raises(sv.CapExceededError):
            sv.build_chain_state(9, (1, 0))
        # no command-line input reaches the cap, so hitting it is an internal fault
        assert not issubclass(sv.CapExceededError, InputError)


LINK = sv.bracket_state("p", 1)
P1 = sv.pol("p", 1)


class TestStateChecks:
    """Each input check of a state and its operations raises its own error."""

    @pytest.mark.parametrize("call, error, match", [
        pytest.param(lambda: sv.PureState((P1, P1), np.eye(4)[0]), ValueError, "duplicate",
                     id="duplicate-labels"),
        pytest.param(lambda: sv.PureState([sv.pol("p", i) for i in range(sv.DOF_CAP + 1)], [1]),
                     sv.CapExceededError, "exceeds cap", id="too-many-labels"),
        pytest.param(lambda: sv.PureState((P1,), [1, 0, 0]), ValueError, "does not match",
                     id="vector-length"),
        pytest.param(lambda: sv.PureState((P1,), [1, 1]), sv.NonNormalizedError,
                     "not normalized", id="unnormalized"),
        pytest.param(lambda: LINK.axis(P1), sv.StateError, "unknown degree of freedom",
                     id="unknown-label"),
        pytest.param(lambda: LINK.tensor(LINK), ValueError, "share labels", id="shared-labels"),
        pytest.param(lambda: LINK.apply_cz(sv.path("p", 1), sv.path("p", 1)), ValueError,
                     "two distinct labels", id="cz-on-one-label"),
        pytest.param(lambda: LINK.overlap(sv.bracket_state("q", 1)), sv.StateError,
                     "label sets differ", id="overlap-labels"),
        pytest.param(lambda: sv.build_chain_state(0, (1, 0)), ValueError, "at least one link",
                     id="chain-of-no-links"),
    ])
    def test_bad_input_raises(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestBases:
    @pytest.mark.parametrize("basis", [sv.Z_BASIS, sv.X_BASIS, sv.BELL_BASIS],
                             ids=["z", "x", "bell"])
    def test_rows_are_orthonormal(self, basis):
        assert np.abs(basis @ basis.conj().T - np.eye(len(basis))).max() <= 1e-15

    @pytest.mark.parametrize("k", range(4))
    def test_bell_row_is_labelled_x_z(self, k):
        x, z = k >> 1, k & 1
        want = np.zeros(4)
        want[x] = 1  # |0, x>
        want[2 | (1 - x)] = (-1) ** z  # |1, 1-x>
        assert np.abs(sv.BELL_BASIS[k] - want / SQ2).max() <= 1e-16

    def test_outcome_zero_is_zero_and_plus(self):
        assert np.array_equal(sv.Z_BASIS[0], [1, 0])
        assert np.abs(sv.X_BASIS[0] - np.array([1, 1]) / SQ2).max() <= 1e-16

    def test_measure_reads_the_row_it_projects_on(self):
        # |0>|+> on (pol a, pol b): z reads 0 on a, x reads plus on b
        st = sv.PureState((sv.pol("a", 1), sv.pol("b", 1)), np.array([1, 1, 0, 0]) / SQ2)
        za = st.measure((sv.pol("a", 1),), sv.Z_BASIS)
        xb = st.measure((sv.pol("b", 1),), sv.X_BASIS)
        assert (za.outcome.tolist(), xb.outcome.tolist()) == ([0], [0])
        assert za.probability[0] == pytest.approx(1, abs=1e-15)
        assert za.state.labels == (sv.pol("b", 1),)

    def test_measure_stacks_every_outcome_of_every_branch(self):
        # two input branches, |0>|+> and |1>|+>: the z outcome follows the branch
        labels = (sv.pol("a", 1), sv.pol("b", 1))
        st = sv.PureState(labels, np.array([[1, 1, 0, 0], [0, 0, 1, 1]]) / SQ2)
        m = st.measure((sv.pol("a", 1),), sv.Z_BASIS)
        assert (m.outcome.tolist(), m.parent.tolist()) == ([0, 1], [0, 1])
        assert np.abs(m.state.vec - np.array([1, 1]) / SQ2).max() <= 1e-15
        x = st.measure((sv.pol("b", 1),), sv.X_BASIS)
        assert (x.outcome.tolist(), x.parent.tolist()) == ([0, 0], [0, 1])


class TestWeave:
    def setup_method(self):
        self.sa = sv.bracket_state("p", 1)
        self.sb = sv.bracket_state("q", 1)
        self.target = sv.woven_target("p", 2, "q", 2)

    def test_four_uniform_branches(self):
        branches = sv.weave(self.sa, self.sb, sv.arm("p", 2), sv.arm("q", 2))
        assert len(branches) == 4
        assert branches.outcome.tolist() == [list(o) for o in
                                             itertools.product((0, 1), (0, 1))]
        assert np.abs(branches.probability - 0.25).max() <= 1e-12
        assert np.abs(branches.state.fidelity(self.target) - 1).max() <= 1e-10

    def test_correction_table_rederived(self):
        """Brute-force the uncorrected branches and confirm the fix-up rule.

        The minus outcome on one arm leaves a residual phase (-1)^{a or b} that
        a single Z on the opposite link's polarization removes; no other
        single-qubit Pauli assignment works on all four branches.
        """
        joint = self.sa.tensor(self.sb).apply_cz(sv.arm("p", 2), sv.arm("q", 2))
        Z = np.diag([1, -1]).astype(complex)
        for ma in measure_oracle(joint, (sv.arm("p", 2),), sv.X_BASIS):
            for mb in measure_oracle(ma.state, (sv.arm("q", 2),), sv.X_BASIS):
                raw = mb.state
                fixed = raw
                if mb.outcome:
                    fixed = fixed.apply_one(sv.pol("p", 2), Z)
                if ma.outcome:
                    fixed = fixed.apply_one(sv.pol("q", 2), Z)
                assert fixed.fidelity(self.target)[0] == pytest.approx(1, abs=1e-12)
                if ma.outcome or mb.outcome:
                    assert raw.fidelity(self.target)[0] < 0.999

    def test_woven_target_structure(self):
        t = sv.woven_target("p", 2, "q", 2)
        grid = t.vec.reshape(2, 2, 2, 2)
        for a, b in itertools.product((0, 1), (0, 1)):
            assert grid[a, a, b, b] == pytest.approx(0.5 * (-1) ** (a * b))
        assert np.count_nonzero(grid) == 4

    def test_weave_requires_free_arm(self):
        with pytest.raises(sv.ArmNotFreeError):
            sv.weave(self.sa, self.sb, sv.pol("p", 2), sv.arm("q", 2))


class TestFailurePaths:
    def test_fail_weave_preserves_link_entanglement(self):
        st = sv.bracket_state("p", 1)
        branches = sv.disconnect_arm(st, sv.arm("p", 2))
        assert len(branches) == 2
        assert np.abs(branches.probability - 0.5).max() <= 1e-12
        coeffs = branches.state.schmidt_coefficients([sv.path("p", 1)])
        assert coeffs.shape == (2, 2)
        assert np.allclose(coeffs, 1 / SQ2, atol=1e-10)

    def test_disconnect_arm_fixes_phase(self):
        """After the z-outcome-conditioned Z, both branches equal the bare link."""
        st = sv.bracket_state("p", 1)
        bare = sv.PureState((sv.path("p", 1), sv.pol("p", 2)),
                            np.array([1, 0, 0, 1]) / SQ2)
        fids = sv.disconnect_arm(st, sv.arm("p", 2)).state.fidelity(bare)
        assert fids.shape == (2,) and np.abs(fids - 1).max() <= 1e-12

    def test_zero_probability_outcomes_are_dropped(self):
        """A stacked measurement keeps only the outcomes at or above the
        1e-14 floor: here the second branch's arm is |0>, so z never reads 1."""
        link = sv.bracket_state("p", 1)
        fixed = np.zeros(8)
        fixed[0b000] = 1  # |0>_path |0>_pol |0>_arm
        st = sv.PureState(link.labels, np.stack([link.vec[0], fixed]))
        branches = sv.disconnect_arm(st, sv.arm("p", 2))
        assert branches.outcome.tolist() == [0, 1, 0]
        assert branches.parent.tolist() == [0, 0, 1]
        assert np.abs(branches.probability - [0.5, 0.5, 1]).max() <= 1e-15
        assert branches.state.vec.shape == (3, 4)
        assert np.abs(branches.state.vec[2] - [1, 0, 0, 0]).max() == 0

    @pytest.mark.parametrize("data", [(1, 0), (1 / SQ2, 1j / SQ2), (0.6, 0.8j)])
    def test_teleport_through_failed_link(self, data):
        st = sv.build_chain_state(1, data)
        target = sv.data_state("p", 2, *data)
        d = sv.disconnect_arm(st, sv.arm("p", 2))
        t = sv.bell_teleport(d.state, "p", 1)
        assert len(t) == 8 and t.parent.tolist() == [0] * 4 + [1] * 4
        assert np.abs(t.probability - 0.25).max() <= 1e-12
        assert np.abs(t.state.fidelity(target) - 1).max() <= 1e-9


class TestBellTeleport:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_repeated_teleportation(self, hops):
        """Data survives 4^k branch combinations of k successive teleports."""
        data = (0.48 + 0.36j, 0.8)
        st = sv.build_chain_state(hops, data)
        for k in range(1, hops + 1):
            st = sv.disconnect_arm(sv.bell_teleport(st, "p", k).state, sv.arm("p", k + 1)).state
        assert st.vec.shape[0] == 8 ** hops
        target = sv.data_state("p", hops + 1, *data)
        assert np.abs(st.fidelity(target) - 1).max() <= 1e-9


class TestPrograms:
    def test_ideal_circuit_oracle(self):
        H = np.array([[1, 1], [1, -1]]) / SQ2
        circuit = Circuit(("a", "b"), {},
                          (Unitary("a", H), sv.Cphase("a", "b"), Unitary("b", H)))
        out = ideal_circuit(circuit)
        # H on a, CZ, H on b with b=|0>: CZ acts trivially -> |+>|0->H = |+>|+>
        expected = np.kron([1, 1], [1, 1]) / 2
        assert np.allclose(out.vec, expected)

    def test_program_validation(self):
        with pytest.raises(sv.MalformedProgramError):
            sv.Cphase("a", "a")
        with pytest.raises(sv.MalformedProgramError):
            sv.Program(("a",), (sv.Rotation("missing"),))

    def test_rotation_is_a_place_only(self):
        """A layout's rotation names its qubit and nothing else, so there is
        no matrix to check."""
        assert [f.name for f in fields(sv.Rotation)] == ["qubit"]
        assert [f.name for f in fields(sv.Program)] == ["qubits", "ops"]
        with pytest.raises(TypeError):
            sv.Rotation("a", np.eye(2))

    def test_unknown_operation_rejected(self):
        with pytest.raises(sv.MalformedProgramError, match="unknown operation 'junk'"):
            sv.Program(("a", "b"), ("junk",))

    @pytest.mark.parametrize("qubits, ops, message", [
        (("a", "a"), ("junk",), "qubit names must be non-empty and unique"),
        ((), (), "qubit names must be non-empty and unique"),
        (("a", "b"), (sv.Rotation("zz"), "junk"), "gate targets undeclared qubit 'zz'"),
        (("a", "b"), ("junk", sv.Rotation("zz")), "unknown operation 'junk'"),
        (("a", "b"), ("junk", sv.Cphase("a", "zz")), "unknown operation 'junk'"),
        (("a", "b"), (sv.Cphase("a", "zz"), "junk"), "gate targets undeclared qubit 'zz'"),
        (("a", "b"), (sv.Cphase("yy", "zz"),), "gate targets undeclared qubit 'yy'"),
        (("a", "b"), (sv.Rotation("b"), sv.Rotation("zz")),
         "gate targets undeclared qubit 'zz'"),
    ])
    def test_validation_messages_in_order(self, qubits, ops, message):
        """Names, then each operation in turn: the first fault found is the
        one reported."""
        with pytest.raises(sv.MalformedProgramError) as exc:
            sv.Program(qubits, ops)
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", [3, 4])
    def test_ideal_circuit_matches_gate_by_gate(self, seed):
        """The oracle's tensordot rotations and in-place phases against
        ``apply_one`` and ``apply_cz`` on the same input, gate by gate."""
        circuit = random_circuit(6, 5, 8, seed)
        state = None
        for q in circuit.qubits:
            d = sv.data_state(q, 0, *circuit.input_pair(q))
            state = d if state is None else state.tensor(d)
        for op in circuit.ops:
            if isinstance(op, Unitary):
                state = state.apply_one(sv.pol(op.qubit, 0), op.matrix)
            else:
                state = state.apply_cz(sv.pol(op.a, 0), sv.pol(op.b, 0))
        got = ideal_circuit(circuit)
        assert got.labels == state.labels
        assert np.abs(got.vec - state.vec).max() <= 1e-14

    def test_json_document(self):
        """A layout prints its qubits and gates: a rotation as its place only."""
        prog = sv.Program(("a", "b"), (sv.Rotation("a"), sv.Cphase("b", "a")))
        assert sv.program_to_json(prog) == {
            "qubits": ["a", "b"],
            "gates": [{"type": "unitary", "qubit": "a"},
                      {"type": "cphase", "qubits": ["b", "a"]}]}


class TestEvolution:
    def test_single_cphase_all_branches(self):
        prog = sv.Program(("a", "b"), (sv.Cphase("a", "b"),))
        rep = sv.evolve_program(prog, links_per_qubit=1)
        assert rep.branch_count == 64
        assert rep.min_fidelity == pytest.approx(1, abs=1e-9)
        assert rep.probability_sum == pytest.approx(1, abs=1e-9)

    def test_random_two_gate_program(self):
        prog = sv.random_program(2, 2, 2, np.random.default_rng(12))
        rep = sv.evolve_program(prog, links_per_qubit=2)
        assert rep.min_fidelity == pytest.approx(1, abs=1e-9)
        assert rep.probability_sum == pytest.approx(1, abs=1e-9)

    def test_chain_too_short(self):
        prog = sv.Program(("a", "b"), (sv.Cphase("a", "b"), sv.Cphase("a", "b")))
        with pytest.raises(sv.ChainTooShortError):
            sv.evolve_program(prog, links_per_qubit=1)

    def test_rotations_only_is_one_branch(self):
        prog = sv.Program(("a", "b"), (sv.Rotation("a"), sv.Rotation("b")))
        rep = sv.evolve_program(prog, links_per_qubit=0)
        # the empty product and the empty minimum
        assert (rep.branch_count, rep.probability_sum, rep.min_fidelity) == (1, 1.0, 1.0)

    @pytest.mark.parametrize("n_qubits", [2, 3, 4, 13])
    def test_gadget_width_does_not_grow_with_the_program(self, monkeypatch, n_qubits):
        # 4 Choi labels plus the 6 pulled from the two chains
        honest = sv.weave_joint
        widths = []

        def spy(joint, arm_a, arm_b):
            widths.append(len(joint.labels))
            return honest(joint, arm_a, arm_b)

        monkeypatch.setattr(sv, "weave_joint", spy)
        prog = sv.random_program(n_qubits, 1, 2, np.random.default_rng(8))
        sv.evolve_program(prog, links_per_qubit=1)
        assert widths == [10]

    def test_weave_without_conditional_phase_is_caught(self, monkeypatch):
        """On |0>|0> the conditional phase acts as the identity, so only a
        check on every input sees a weave that never entangles the arms."""
        honest = sv.weave_joint

        def no_cz(joint, arm_a, arm_b):
            # the conditional phase is its own inverse: this cancels the weave's
            return honest(joint.apply_cz(arm_a, arm_b), arm_a, arm_b)

        monkeypatch.setattr(sv, "weave_joint", no_cz)
        rep = sv.evolve_program(sv.Program(("a", "b"), (sv.Cphase("a", "b"),)), 1)
        assert rep.min_fidelity < 1 - 1e-9
        assert rep.branch_count == 64
        assert rep.probability_sum == pytest.approx(1, abs=1e-12)

    def test_twenty_cphases_on_six_qubits(self):
        prog = sv.random_program(6, 20, 10, np.random.default_rng(20))
        rep = sv.evolve_program(prog, links_per_qubit=20)
        assert rep.branch_count == 64 ** 20
        assert rep.min_fidelity >= 1 - 1e-9
        assert abs(rep.probability_sum - 1) <= 1e-9


# ---------------------------------------------------------------------------
# Slow oracles for the fast paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unitary:
    """A rotation with its matrix: what a layout's ``sv.Rotation`` leaves open."""

    qubit: str
    matrix: np.ndarray


@dataclass(frozen=True)
class Circuit:
    """A gate layout with its rotations and inputs put on: ``ops`` holds a
    ``Unitary`` where the layout has a ``sv.Rotation``, and ``inputs`` one
    normalized pair per qubit (|0> where none is given)."""

    qubits: tuple
    inputs: dict
    ops: tuple

    @property
    def layout(self):
        """The ``sv.Program`` that ``evolve_program`` verifies."""
        return sv.Program(self.qubits, tuple(
            sv.Rotation(op.qubit) if isinstance(op, Unitary) else op for op in self.ops))

    def input_pair(self, q):
        return self.inputs.get(q, (1.0, 0.0))


def haar_unitary(rng):
    """Haar-random 2x2 unitary via QR with phase fixing (Mezzadri,
    Notices AMS 54, 592 (2007))."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def fill(layout, rng):
    """Put rotations and inputs on ``layout``: one normalized input per
    qubit, then one Haar matrix per ``sv.Rotation``, in order, from ``rng``."""
    inputs = {}
    for q in layout.qubits:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        inputs[q] = tuple(complex(z) for z in v / np.linalg.norm(v))
    ops = tuple(Unitary(op.qubit, haar_unitary(rng)) if isinstance(op, sv.Rotation) else op
                for op in layout.ops)
    return Circuit(layout.qubits, inputs, ops)


def random_circuit(n_qubits, n_cphases, n_rotations, seed):
    """``sv.random_program``'s layout for ``seed``, filled from the same stream."""
    rng = np.random.default_rng(seed)
    return fill(sv.random_program(n_qubits, n_cphases, n_rotations, rng), rng)


def ideal_circuit(circuit):
    """Direct application of the circuit to its product input, one axis per
    qubit in declaration order, as a state on the labels ``pol(q, 0)``."""
    n = len(circuit.qubits)
    index = {q: i for i, q in enumerate(circuit.qubits)}
    grid = np.ones((), dtype=complex)
    for q in circuit.qubits:
        grid = np.multiply.outer(grid, np.array(circuit.input_pair(q), dtype=complex))
    for op in circuit.ops:
        if isinstance(op, Unitary):
            ax = index[op.qubit]
            grid = np.moveaxis(np.tensordot(op.matrix, grid, axes=([1], [ax])), 0, ax)
        else:
            idx = [slice(None)] * n
            idx[index[op.a]] = 1
            idx[index[op.b]] = 1
            grid[tuple(idx)] *= -1  # grid is always a freshly built array
    return sv.PureState([sv.pol(q, 0) for q in circuit.qubits], grid.reshape(-1))


def apply_one_oracle(state, dof, u):
    """The single-qubit gate as a matrix product on the moved-last axis."""
    ax = state.axis(dof)
    grid = np.moveaxis(state.vec.reshape([2] * len(state.labels)), ax, -1) @ u.T
    return np.moveaxis(grid, -1, ax).reshape(-1)


@dataclass(frozen=True)
class Branch:
    """One outcome of a scalar measurement event and the state it leaves,
    with the event's corrections applied."""

    outcome: int | tuple
    probability: float
    state: sv.PureState


def measure_oracle(state, dofs, basis):
    """Project the labels ``dofs`` of a single state onto the rows of
    ``basis``, one outcome at a time; zero-probability outcomes are dropped."""
    rest = tuple(l for l in state.labels if l not in dofs)
    branches = []
    for outcome, comp in enumerate(basis.conj() @ state._matrix(dofs)[0]):
        prob = float(sv._norm2(comp))
        if prob >= 1e-14:
            branches.append(Branch(outcome, prob,
                                   sv.PureState(rest, comp / math.sqrt(prob), _checked=True)))
    return branches


def weave_joint_oracle(joint, arm_a, arm_b):
    """The weave branch by branch, each fix-up applied where its outcome asks."""
    woven = joint.apply_cz(arm_a, arm_b)
    pol_a = sv.pol(arm_a.chain, arm_a.photon)
    pol_b = sv.pol(arm_b.chain, arm_b.photon)
    branches = []
    for ma in measure_oracle(woven, (arm_a,), sv.X_BASIS):
        for mb in measure_oracle(ma.state, (arm_b,), sv.X_BASIS):
            out = mb.state
            if mb.outcome:
                out = out.apply_one(pol_a, sv._Z)
            if ma.outcome:
                out = out.apply_one(pol_b, sv._Z)
            branches.append(Branch((ma.outcome, mb.outcome),
                                   ma.probability * mb.probability, out))
    return branches


def bell_teleport_oracle(state, chain, photon):
    """The Bell teleport branch by branch: X^x, then Z^z, on the next photon."""
    nxt = sv.pol(chain, photon + 1)
    branches = []
    for m in measure_oracle(state, (sv.path(chain, photon), sv.pol(chain, photon)),
                            sv.BELL_BASIS):
        x, z = m.outcome >> 1, m.outcome & 1
        out = m.state.apply_one(nxt, sv._X) if x else m.state
        branches.append(Branch((x, z), m.probability,
                               out.apply_one(nxt, sv._Z) if z else out))
    return branches


def cphase_branches_oracle(state, a, ca, b, cb):
    """Yield (outcome, probability, corrected state) for each of the 64
    branches of one conditional-phase gadget, one branch at a time."""
    pulled = state.tensor(sv.bracket_state(a, ca)).tensor(sv.bracket_state(b, cb))
    for wb in weave_joint_oracle(pulled, sv.arm(a, ca + 1), sv.arm(b, cb + 1)):
        for ta in bell_teleport_oracle(wb.state, a, ca):
            st_a = ta.state
            if ta.outcome[0]:
                st_a = st_a.apply_one(sv.pol(b, cb + 1), sv._Z)
            for tb in bell_teleport_oracle(st_a, b, cb):
                st_b = tb.state
                if tb.outcome[0]:
                    st_b = st_b.apply_one(sv.pol(a, ca + 1), sv._Z)
                yield (wb.outcome + ta.outcome + tb.outcome,
                       wb.probability * ta.probability * tb.probability, st_b)


def circuit_input(circuit):
    """The circuit's input, one data qubit per chain, tensored one by one."""
    state = None
    for q in circuit.qubits:
        d = sv.data_state(q, 1, *circuit.input_pair(q))
        state = d if state is None else state.tensor(d)
    return state


def enumerate_program(circuit, links_per_qubit):
    """Depth-first oracle: follow every branch of every gadget to the end.

    Each of the 64^c leaves is compared with the ideal circuit; returns
    (branch count, least fidelity, probability sum).
    """
    target = ideal_circuit(circuit)
    init = circuit_input(circuit)
    results = []

    def run(state, ops, carriers, prob):
        while ops and isinstance(ops[0], Unitary):
            state = state.apply_one(sv.pol(ops[0].qubit, carriers[ops[0].qubit]),
                                    ops[0].matrix)
            ops = ops[1:]
        if not ops:
            mapping = {sv.pol(q, carriers[q]): sv.pol(q, 0) for q in circuit.qubits}
            results.append((prob, state.relabel(mapping).fidelity(target)[0]))
            return
        a, b = ops[0].a, ops[0].b
        ca, cb = carriers[a], carriers[b]
        leaves = sv._cphase_branches(state, a, ca, b, cb)
        for p, vec in zip(leaves.probability, leaves.state.vec):
            run(sv.PureState(leaves.state.labels, vec, _checked=True), ops[1:],
                {**carriers, a: ca + 1, b: cb + 1}, prob * p)

    run(init, tuple(circuit.ops), {q: 1 for q in circuit.qubits}, 1.0)
    return (len(results), min(f for _, f in results), sum(p for p, _ in results))


def evolve_whole_state(circuit, links_per_qubit):
    """Per-gadget oracle on the real input: each gadget's 64 branches run on
    the whole program state plus the 6 labels pulled from the two chains.

    Returns (branch count, least fidelity, probability sum).
    """
    target = ideal_circuit(circuit)
    state = circuit_input(circuit)
    carriers = {q: 1 for q in circuit.qubits}
    branch_count, prob_sum, min_fid = 1, 1.0, math.inf
    for op in circuit.ops:
        if isinstance(op, Unitary):
            state = state.apply_one(sv.pol(op.qubit, carriers[op.qubit]), op.matrix)
            continue
        a, b = op.a, op.b
        ca, cb = carriers[a], carriers[b]
        want = state.apply_cz(sv.pol(a, ca), sv.pol(b, cb)).relabel(
            {sv.pol(a, ca): sv.pol(a, ca + 1), sv.pol(b, cb): sv.pol(b, cb + 1)})
        leaves = sv._cphase_branches(state, a, ca, b, cb)
        branch_count *= len(leaves)
        prob_sum *= leaves.probability.sum()
        min_fid = min(min_fid, leaves.state.fidelity(want).min())
        state = want
        carriers[a], carriers[b] = ca + 1, cb + 1
    mapping = {sv.pol(q, carriers[q]): sv.pol(q, 0) for q in circuit.qubits}
    min_fid = min(min_fid, state.relabel(mapping).fidelity(target)[0])
    return branch_count, min_fid, prob_sum


def lift_choi_branches(monkeypatch, circuit, links_per_qubit):
    """Apply each Choi branch of the one check that ``evolve_program`` runs,
    as a map, to every gadget's real input.

    A branch of probability p leaves (K (x) I)|Phi>|Phi> / sqrt(p), and
    |Phi>|Phi> = sum_ij |ij>_carriers |ij>_references / 2, so the branch map
    K is 2 sqrt(p) times the leaf's amplitudes as a (new carriers) x
    (references) matrix.  Returns (least fidelity, probability sum) of the
    lifted branches against the conditional phase on each real input.
    """
    checks = []
    honest = sv._cphase_branches

    def spy(*args):
        checks.append((args, honest(*args)))
        return checks[-1][1]

    monkeypatch.setattr(sv, "_cphase_branches", spy)
    sv.evolve_program(circuit.layout, links_per_qubit)
    assert len(checks) == 1
    (_, a0, ca0, b0, cb0), leaves = checks[0]
    maps = leaves.state._matrix((sv.pol(a0, ca0 + 1), sv.pol(b0, cb0 + 1),
                                 sv.pol(a0, 0), sv.pol(b0, 0))).reshape(-1, 4, 4)
    ks = 2 * np.sqrt(leaves.probability)[:, None, None] * maps
    state = circuit_input(circuit)
    carriers = {q: 1 for q in circuit.qubits}
    prob_sum, min_fid = 1.0, math.inf
    for op in circuit.ops:
        if isinstance(op, Unitary):
            state = state.apply_one(sv.pol(op.qubit, carriers[op.qubit]), op.matrix)
            continue
        a, b = op.a, op.b
        ca, cb = carriers[a], carriers[b]
        x, y, nx, ny = sv.pol(a, ca), sv.pol(b, cb), sv.pol(a, ca + 1), sv.pol(b, cb + 1)
        want = state.apply_cz(x, y).relabel({x: nx, y: ny})
        # both matrices' columns are the spectators in canonical order; the
        # check's chain a plays this gadget's a, its chain b this gadget's b
        psi, w = state._matrix((x, y))[0], want._matrix((nx, ny))[0]
        gadget_sum = 0.0
        for k in ks:
            out = k @ psi
            norm2 = np.vdot(out, out).real
            gadget_sum += norm2
            min_fid = min(min_fid, abs(np.vdot(w, out)) ** 2 / norm2)
        prob_sum *= gadget_sum
        state = want
        carriers[a], carriers[b] = ca + 1, cb + 1
    return min_fid, prob_sum


def cphase_first(n_qubits, n_cphases, seed):
    """A random circuit behind a leading conditional phase.  Its carriers are
    then a product with the spectators: the (carriers | rest) matrix has rank 1."""
    circuit = random_circuit(n_qubits, n_cphases, 3, seed)
    return replace(circuit, ops=(sv.Cphase("q1", "q3"),) + circuit.ops)


def drop_x_byproducts(monkeypatch):
    """Break every gadget: Bell teleports forget their X byproduct.  The
    wrapper applies X again on every x = 1 branch of the stacked teleport and
    reports x = 0, so the partner-chain Z that an X byproduct calls for is
    skipped too."""
    honest = sv.bell_teleport

    def no_x(state, chain, photon):
        t = honest(state, chain, photon)
        x = t.outcome[:, 0]
        undone = t.state.apply_one(sv.pol(chain, photon + 1), np.array([np.eye(2), sv._X])[x])
        return sv.Branches(np.stack([0 * x, t.outcome[:, 1]], axis=1), t.probability,
                           undone, t.parent)

    monkeypatch.setattr(sv, "bell_teleport", no_x)


def drop_partner_z(monkeypatch):
    """Break every gadget in one place: Bell teleports still correct their
    own X^x Z^z byproduct but report x = 0, so ``_cphase_branches`` skips
    only the partner-chain Z that an X byproduct calls for."""
    honest = sv.bell_teleport

    def hide_x(state, chain, photon):
        t = honest(state, chain, photon)
        return replace(t, outcome=t.outcome * [0, 1])

    monkeypatch.setattr(sv, "bell_teleport", hide_x)


T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]])


class TestOracles:
    @pytest.mark.parametrize("u", [H, T, sv._X, sv._Z], ids=["H", "T", "X", "Z"])
    def test_apply_one_matches_matrix_product(self, u):
        rng = np.random.default_rng(7)
        labels = [sv.pol(f"q{i}", 1) for i in range(7)]
        vec = rng.normal(size=2 ** 7) + 1j * rng.normal(size=2 ** 7)
        st = sv.PureState(labels, vec / np.linalg.norm(vec))
        for dof in st.labels:
            got = st.apply_one(dof, u).vec
            assert np.abs(got - apply_one_oracle(st, dof, u)).max() <= 1e-15

    @pytest.mark.parametrize("circuit", [
        Circuit(("a", "b"), {"a": (0.6, 0.8j), "b": (1 / SQ2, -1 / SQ2)},
                (sv.Cphase("a", "b"), Unitary("a", H), Unitary("b", T))),
        Circuit(("a", "b"), {"a": (0.8, 0.6), "b": (0.28, 0.96j)},
                (Unitary("b", H), Unitary("a", T), sv.Cphase("b", "a"))),
        random_circuit(2, 2, 2, 12),
        random_circuit(3, 2, 3, 5),
        random_circuit(5, 2, 3, 9),
    ], ids=["cphase-first", "cphase-last", "2q-2c", "3q-2c", "5q-2c"])
    def test_merge_matches_enumeration(self, circuit):
        want = enumerate_program(circuit, 2)
        rep = sv.evolve_program(circuit.layout, 2)
        assert rep.branch_count == want[0] == 64 ** sum(
            isinstance(op, sv.Cphase) for op in circuit.ops)
        assert rep.min_fidelity == pytest.approx(want[1], abs=1e-12)
        assert rep.probability_sum == pytest.approx(want[2], abs=1e-12)

    def test_dropped_x_byproduct_is_caught_by_both(self, monkeypatch):
        drop_x_byproducts(monkeypatch)
        prog = random_circuit(2, 1, 2, 11)
        assert enumerate_program(prog, 1)[1] < 1 - 1e-9
        assert sv.evolve_program(prog.layout, 1).min_fidelity < 1 - 1e-9
        # six qubits: the whole-state oracle carries four spectators
        prog = random_circuit(6, 1, 2, 11)
        assert enumerate_program(prog, 1)[1] < 1 - 1e-9
        assert evolve_whole_state(prog, 1)[1] < 1 - 1e-9
        assert sv.evolve_program(prog.layout, 1).min_fidelity < 1 - 1e-9

    @pytest.mark.parametrize("n_qubits", [2, 13])
    def test_missing_partner_z_is_caught_by_both(self, monkeypatch, n_qubits):
        drop_partner_z(monkeypatch)
        prog = random_circuit(n_qubits, 1, 2, 11)
        assert enumerate_program(prog, 1)[1] < 1 - 1e-9
        assert evolve_whole_state(prog, 1)[1] < 1 - 1e-9
        rep = sv.evolve_program(prog.layout, 1)
        assert rep.min_fidelity < 1 - 1e-9
        assert rep.branch_count == 64
        assert rep.probability_sum == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("circuit", [
        random_circuit(5, 1, 3, 1),
        random_circuit(5, 3, 4, 2),
        random_circuit(6, 2, 3, 3),
        cphase_first(6, 1, 4),
        random_circuit(12, 2, 3, 5),
        random_circuit(12, 3, 2, 6),
        random_circuit(13, 1, 3, 7),
        cphase_first(13, 2, 8),
    ], ids=["5q-1c", "5q-3c", "6q-2c", "6q-cphase-first", "12q-2c", "12q-3c",
            "13q-1c", "13q-cphase-first"])
    @pytest.mark.parametrize("gadget", ["honest", "dropped-x", "missing-partner-z"])
    def test_choi_check_matches_whole_state(self, monkeypatch, circuit, gadget):
        # a broken gadget gives branch fidelities well below 1 on the real
        # input; the Choi branches, lifted to maps, must reproduce them as
        # exactly as the 1s of an honest gadget
        if gadget == "dropped-x":
            drop_x_byproducts(monkeypatch)
        elif gadget == "missing-partner-z":
            drop_partner_z(monkeypatch)
        want = evolve_whole_state(circuit, 3)
        rep = sv.evolve_program(circuit.layout, 3)
        assert rep.branch_count == want[0]
        assert rep.probability_sum == pytest.approx(want[2], abs=1e-12)
        if gadget == "honest":
            assert rep.min_fidelity == pytest.approx(want[1], abs=1e-12)
        else:
            assert rep.min_fidelity < 1 - 1e-9
        lifted_fid, lifted_sum = lift_choi_branches(monkeypatch, circuit, 3)
        assert lifted_fid == pytest.approx(want[1], abs=1e-12)
        assert lifted_sum == pytest.approx(want[2], abs=1e-12)


def choi_input(ca, cb, a="a", b="b"):
    """|Phi>|Phi> on carriers ``pol(a, ca)``, ``pol(b, cb)`` and their references."""
    labels = (sv.pol(a, ca), sv.pol(a, 0), sv.pol(b, cb), sv.pol(b, 0))
    return sv.PureState(labels, sv._PHI_PHI)


class TestStackedAgainstScalar:
    """The stacked events against the scalar oracles, outcome by outcome."""

    @staticmethod
    def assert_same(got, want):
        """``want`` holds (outcome, probability, state) per branch, in order."""
        assert len(got) == len(want)
        assert [tuple(o) for o in got.outcome.tolist()] == [o for o, _, _ in want]
        assert np.abs(got.probability - [p for _, p, _ in want]).max() <= 1e-15
        assert all(s.labels == got.state.labels for _, _, s in want)
        assert np.abs(got.state.vec - np.vstack([s.vec for _, _, s in want])).max() <= 1e-12

    @pytest.mark.parametrize("ca, cb", [(1, 1), (2, 3), (3, 1)])
    def test_gadget_matches_scalar_oracle(self, ca, cb):
        choi = choi_input(ca, cb)
        got = sv._cphase_branches(choi, "a", ca, "b", cb)
        self.assert_same(got, list(cphase_branches_oracle(choi, "a", ca, "b", cb)))
        assert len(got) == 64 and got.parent.tolist() == [0] * 64

    def test_weave_matches_scalar_oracle(self):
        """The four branches that ``verify-weave`` reports."""
        sa, sb = sv.bracket_state("p", 1), sv.bracket_state("q", 1)
        arms = (sv.arm("p", 2), sv.arm("q", 2))
        want = weave_joint_oracle(sa.tensor(sb), *arms)
        self.assert_same(sv.weave(sa, sb, *arms),
                         [(b.outcome, b.probability, b.state) for b in want])

    def test_gadget_on_a_stack_is_the_gadget_on_each_input(self):
        labels = choi_input(2, 3).labels
        rng = np.random.default_rng(17)
        vecs = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        got = sv._cphase_branches(sv.PureState(labels, vecs), "a", 2, "b", 3)
        assert got.parent.tolist() == [0] * 64 + [1] * 64
        for i, vec in enumerate(vecs):
            one = sv._cphase_branches(sv.PureState(labels, vec), "a", 2, "b", 3)
            rows = slice(64 * i, 64 * (i + 1))
            assert np.array_equal(got.outcome[rows], one.outcome)
            assert np.abs(got.probability[rows] - one.probability).max() <= 1e-15
            assert np.abs(got.state.vec[rows] - one.state.vec).max() <= 1e-12

    @pytest.mark.parametrize("seed", [3, 5])
    def test_probability_sum_is_the_scalar_running_sum(self, seed):
        """Each gadget's probabilities are added left to right in the scalar
        branch order, so the report's sum is the same float."""
        prog = sv.random_program(4, 3, 4, np.random.default_rng(seed))
        carriers = {q: 1 for q in prog.qubits}
        want = 1.0
        for op in prog.ops:
            if isinstance(op, sv.Cphase):
                ca, cb = carriers[op.a], carriers[op.b]
                gadget_sum = 0.0
                choi = choi_input(ca, cb, op.a, op.b)
                for _, p, _ in cphase_branches_oracle(choi, op.a, ca, op.b, cb):
                    gadget_sum += p
                want *= gadget_sum
                carriers[op.a], carriers[op.b] = ca + 1, cb + 1
        assert sv.evolve_program(prog, 3).probability_sum == want


class TestOneCheckPerProgram:
    """``evolve_program`` checks the gadget once, at fixed labels, for every
    conditional phase of a program."""

    @staticmethod
    def check(a, ca, b, cb):
        """The gadget's outcome, probability and fidelity arrays on the Choi
        input at carriers ``pol(a, ca)`` and ``pol(b, cb)``, as bytes."""
        choi = choi_input(ca, cb, a, b)
        x, y = sv.pol(a, ca), sv.pol(b, cb)
        want = choi.apply_cz(x, y).relabel({x: sv.pol(a, ca + 1), y: sv.pol(b, cb + 1)})
        leaves = sv._cphase_branches(choi, a, ca, b, cb)
        return (leaves.outcome.tobytes(), leaves.probability.tobytes(),
                leaves.state.fidelity(want).tobytes())

    @pytest.mark.parametrize("a, b", [("a", "b"), ("b", "a"), ("q10", "q2"), ("q2", "q10")])
    def test_every_placement_is_the_same_channel(self, a, b):
        """Chain names in either sort order and carriers anywhere along the
        chains give the check at fixed labels bit for bit: this is what lets
        one check stand for every gadget of a program."""
        fixed = self.check("a", 1, "b", 1)
        for ca, cb in itertools.product((1, 2, 3), repeat=2):
            assert self.check(a, ca, b, cb) == fixed, (ca, cb)

    @pytest.mark.parametrize("n_qubits, n_cphases", [(2, 1), (3, 2), (6, 50), (4, 0)])
    def test_one_check_per_program(self, monkeypatch, n_qubits, n_cphases):
        honest = sv._cphase_branches
        calls = []

        def spy(*args):
            calls.append(args[1:])
            return honest(*args)

        monkeypatch.setattr(sv, "_cphase_branches", spy)
        prog = sv.random_program(n_qubits, n_cphases, 5, np.random.default_rng(4))
        rep = sv.evolve_program(prog, links_per_qubit=n_cphases)
        assert calls == ([("a", 1, "b", 1)] if n_cphases else [])
        assert rep.branch_count == 64 ** n_cphases
        assert rep.min_fidelity >= 1 - 1e-9
        assert abs(rep.probability_sum - 1) <= 1e-9
