"""Qubit-level protocol tests: chain states, weaving, failure paths, evolution."""

import itertools
import math

import numpy as np
import pytest

from freearm import statevec as sv

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


class TestWeave:
    def setup_method(self):
        self.sa = sv.bracket_state("p", 1)
        self.sb = sv.bracket_state("q", 1)
        self.target = sv.woven_target("p", 2, "q", 2)

    def test_four_uniform_branches(self):
        branches = sv.weave(self.sa, self.sb, sv.arm("p", 2), sv.arm("q", 2))
        assert len(branches) == 4
        assert {b.outcomes for b in branches} == set(itertools.product((0, 1), (0, 1)))
        for b in branches:
            assert b.probability == pytest.approx(0.25, abs=1e-12)
            assert sv.fidelity(b.state, self.target) == pytest.approx(1, abs=1e-10)

    def test_correction_table_rederived(self):
        """Brute-force the uncorrected branches and confirm the fix-up rule.

        The minus outcome on one arm leaves a residual phase (-1)^{a or b} that
        a single Z on the opposite link's polarization removes; no other
        single-qubit Pauli assignment works on all four branches.
        """
        joint = self.sa.tensor(self.sb).apply_cz(sv.arm("p", 2), sv.arm("q", 2))
        Z = np.diag([1, -1]).astype(complex)
        for rec_a, after_a in joint.measure(sv.arm("p", 2), sv.Basis.X):
            for rec_b, after_b in after_a.measure(sv.arm("q", 2), sv.Basis.X):
                raw = after_b
                fixed = raw
                if rec_b.outcome:
                    fixed = fixed.apply_one(sv.pol("p", 2), Z)
                if rec_a.outcome:
                    fixed = fixed.apply_one(sv.pol("q", 2), Z)
                assert sv.fidelity(fixed, self.target) == pytest.approx(1, abs=1e-12)
                if rec_a.outcome or rec_b.outcome:
                    assert sv.fidelity(raw, self.target) < 0.999

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
        branches = sv.fail_weave(st, sv.arm("p", 2))
        assert len(branches) == 2
        for rec, after in branches:
            assert rec.probability == pytest.approx(0.5, abs=1e-12)
            coeffs = after.schmidt_coefficients([sv.path("p", 1)])
            assert np.allclose(coeffs, [1 / SQ2, 1 / SQ2], atol=1e-10)

    def test_disconnect_arm_fixes_phase(self):
        """After the z-outcome-conditioned Z, both branches equal the bare link."""
        st = sv.bracket_state("p", 1)
        bare = sv.PureState((sv.path("p", 1), sv.pol("p", 2)),
                            np.array([1, 0, 0, 1]) / SQ2)
        for rec, after in sv.disconnect_arm(st, sv.arm("p", 2)):
            assert sv.fidelity(after, bare) == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("data", [(1, 0), (1 / SQ2, 1j / SQ2), (0.6, 0.8j)])
    def test_teleport_through_failed_link(self, data):
        st = sv.build_chain_state(1, data)
        target = sv.data_state("p", 2, *data)
        for _, after in sv.disconnect_arm(st, sv.arm("p", 2)):
            for rec, out, frame in sv.bell_teleport(after, "p", 1):
                assert rec.probability == pytest.approx(0.25, abs=1e-12)
                fixed = frame.apply(out, sv.pol("p", 2))
                assert sv.fidelity(fixed, target) == pytest.approx(1, abs=1e-9)


class TestBellTeleport:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_repeated_teleportation(self, hops):
        """Data survives 4^k branch combinations of k successive teleports."""
        data = (0.48 + 0.36j, 0.8)
        st = sv.build_chain_state(hops, data)
        for k in range(1, hops + 1):
            st_branches = []
            states = [st] if k == 1 else branches
            for s in states:
                for _, out, frame in sv.bell_teleport(s, "p", k):
                    st_branches.append(frame.apply(out, sv.pol("p", k + 1)))
            branches = []
            for s in st_branches:
                for _, cleaned in sv.disconnect_arm(s, sv.arm("p", k + 1)):
                    branches.append(cleaned)
        assert len(branches) == 8 ** hops
        target = sv.data_state("p", hops + 1, *data)
        for s in branches:
            assert sv.fidelity(s, target) == pytest.approx(1, abs=1e-9)


class TestPrograms:
    def test_ideal_circuit_oracle(self):
        H = np.array([[1, 1], [1, -1]]) / SQ2
        prog = sv.Program(("a", "b"), {"a": (1, 0), "b": (1, 0)},
                          (sv.Rotation("a", H), sv.Cphase("a", "b"),
                           sv.Rotation("b", H)))
        out = sv.ideal_circuit(prog)
        # H on a, CZ, H on b with b=|0>: CZ acts trivially -> |+>|0->H = |+>|+>
        expected = np.kron([1, 1], [1, 1]) / 2
        assert np.allclose(out.vec, expected)

    def test_program_validation(self):
        with pytest.raises(sv.MalformedProgramError):
            sv.Cphase("a", "a")
        with pytest.raises(sv.MalformedProgramError):
            sv.Program(("a",), {}, (sv.Rotation("missing", np.eye(2)),))
        with pytest.raises(sv.MalformedProgramError):
            sv.Rotation("a", np.array([[1, 1], [0, 1]]))

    def test_json_document(self):
        """Complex numbers are [real, imag] pairs; qubits without an input
        entry are left out of ``inputs``."""
        prog = sv.Program(("a", "b"), {"a": (0.6, 0.8j)},
                          (sv.Rotation("a", np.diag([1, 1j])), sv.Cphase("b", "a")))
        assert sv.program_to_json(prog) == {
            "qubits": ["a", "b"],
            "inputs": {"a": [[0.6, 0.0], [0.0, 0.8]]},
            "gates": [{"type": "unitary", "qubit": "a",
                       "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
                      {"type": "cphase", "qubits": ["b", "a"]}]}


class TestEvolution:
    def test_single_cphase_all_branches(self):
        prog = sv.Program(("a", "b"),
                          {"a": (1 / SQ2, 1 / SQ2), "b": (0.6, 0.8)},
                          (sv.Cphase("a", "b"),))
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
        prog = sv.Program(("a", "b"), {}, (sv.Cphase("a", "b"),
                                           sv.Cphase("a", "b")))
        with pytest.raises(sv.ChainTooShortError):
            sv.evolve_program(prog, links_per_qubit=1)

    def test_rotations_only_is_one_branch(self):
        prog = sv.Program(("a", "b"), {"a": (0.6, 0.8j)},
                          (sv.Rotation("a", H), sv.Rotation("b", H)))
        rep = sv.evolve_program(prog, links_per_qubit=0)
        assert (rep.branch_count, rep.probability_sum) == (1, 1.0)
        assert rep.min_fidelity == pytest.approx(1, abs=1e-12)

    def test_twenty_cphases_on_six_qubits(self):
        prog = sv.random_program(6, 20, 10, np.random.default_rng(20))
        rep = sv.evolve_program(prog, links_per_qubit=20)
        assert rep.branch_count == 64 ** 20
        assert rep.min_fidelity >= 1 - 1e-9
        assert abs(rep.probability_sum - 1) <= 1e-9


# ---------------------------------------------------------------------------
# Slow oracles for the fast paths
# ---------------------------------------------------------------------------


def apply_one_oracle(state, dof, u):
    """The single-qubit gate as a matrix product on the moved-last axis."""
    ax = state.axis(dof)
    grid = np.moveaxis(state.vec.reshape([2] * len(state.labels)), ax, -1) @ u.T
    return np.moveaxis(grid, -1, ax).reshape(-1)


def enumerate_program(program, links_per_qubit):
    """Depth-first oracle: follow every branch of every gadget to the end.

    Each of the 64^c leaves is compared with the ideal circuit; returns
    (branch count, least fidelity, probability sum).
    """
    target = sv.ideal_circuit(program)
    init = None
    for q in program.qubits:
        d = sv.data_state(q, 1, *program.input_pair(q))
        init = d if init is None else init.tensor(d)
    results = []
    Z = np.diag([1, -1]).astype(complex)

    def run(state, ops, carriers, prob):
        while ops and isinstance(ops[0], sv.Rotation):
            state = state.apply_one(sv.pol(ops[0].qubit, carriers[ops[0].qubit]),
                                    ops[0].matrix)
            ops = ops[1:]
        if not ops:
            mapping = {sv.pol(q, carriers[q]): sv.pol(q, 0) for q in program.qubits}
            results.append((prob, state.relabel(mapping).fidelity(target)))
            return
        a, b = ops[0].a, ops[0].b
        ca, cb = carriers[a], carriers[b]
        pulled = state.tensor(sv.bracket_state(a, ca)).tensor(sv.bracket_state(b, cb))
        for wb in sv.weave_joint(pulled, sv.arm(a, ca + 1), sv.arm(b, cb + 1)):
            for r_a, st_a, fr_a in sv.bell_teleport(wb.state, a, ca):
                st_a = fr_a.apply(st_a, sv.pol(a, ca + 1))
                if fr_a.x:
                    st_a = st_a.apply_one(sv.pol(b, cb + 1), Z)
                for r_b, st_b, fr_b in sv.bell_teleport(st_a, b, cb):
                    st_b = fr_b.apply(st_b, sv.pol(b, cb + 1))
                    if fr_b.x:
                        st_b = st_b.apply_one(sv.pol(a, ca + 1), Z)
                    run(st_b, ops[1:], {**carriers, a: ca + 1, b: cb + 1},
                        prob * wb.probability * r_a.probability * r_b.probability)

    run(init, tuple(program.ops), {q: 1 for q in program.qubits}, 1.0)
    return (len(results), min(f for _, f in results), sum(p for p, _ in results))


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

    @pytest.mark.parametrize("program", [
        sv.Program(("a", "b"), {"a": (0.6, 0.8j), "b": (1 / SQ2, -1 / SQ2)},
                   (sv.Cphase("a", "b"), sv.Rotation("a", H), sv.Rotation("b", T))),
        sv.Program(("a", "b"), {"a": (0.8, 0.6), "b": (0.28, 0.96j)},
                   (sv.Rotation("b", H), sv.Rotation("a", T), sv.Cphase("b", "a"))),
        sv.random_program(2, 2, 2, np.random.default_rng(12)),
        sv.random_program(3, 2, 3, np.random.default_rng(5)),
    ], ids=["cphase-first", "cphase-last", "2q-2c", "3q-2c"])
    def test_merge_matches_enumeration(self, program):
        want = enumerate_program(program, 2)
        rep = sv.evolve_program(program, 2)
        assert rep.branch_count == want[0] == 64 ** sum(
            isinstance(op, sv.Cphase) for op in program.ops)
        assert rep.min_fidelity == pytest.approx(want[1], abs=1e-12)
        assert rep.probability_sum == pytest.approx(want[2], abs=1e-12)

    def test_dropped_x_byproduct_is_caught_by_both(self, monkeypatch):
        honest = sv.bell_teleport

        def no_x(state, chain, photon):
            return [(rec, st, sv.CorrectionFrame(x=0, z=frame.z))
                    for rec, st, frame in honest(state, chain, photon)]

        monkeypatch.setattr(sv, "bell_teleport", no_x)
        prog = sv.random_program(2, 1, 2, np.random.default_rng(11))
        assert enumerate_program(prog, 1)[1] < 1 - 1e-9
        assert sv.evolve_program(prog, 1).min_fidelity < 1 - 1e-9
