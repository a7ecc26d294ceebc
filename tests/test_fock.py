"""Photon-level tests: mode unitaries, teleportation, the gate, and two
oracles for it: a sparse one that expands the gate over occupation dicts
branch by branch, and a pairwise one that builds the branch tensor over every
pair of detection patterns from the transfer tensor."""

import inspect
import math
import sys
import types
from dataclasses import dataclass

import numpy as np
import pytest

from freearm import analytics, fock

SQ2 = math.sqrt(2)
EPS = np.finfo(float).eps


def random_unitary(d, seed):
    g = np.random.default_rng(seed)
    m = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    q, _ = np.linalg.qr(m)
    return q


class TestFockState:
    def test_normalization_enforced(self):
        with pytest.raises(fock.FockError):
            fock.FockState(2, {(1, 0): 1.0, (0, 1): 1.0})

    def test_dual_rail_validation(self):
        q = oracle_dual_rail(0.6, 0.8j)
        assert oracle_photon_numbers(q) == {1}


class TestModeUnitaries:
    def test_two_photon_interference(self):
        """A balanced splitter on |1,1> gives (|2,0> - |0,2>)/sqrt(2)."""
        bs = fock.ModeUnitary((0, 1), np.array([[1, 1], [1, -1]]) / SQ2)
        out = fock.apply_mode_unitary(fock.FockState(2, {(1, 1): 1.0}), bs)
        assert out.terms[(2, 0)] == pytest.approx(1 / SQ2)
        assert out.terms[(0, 2)] == pytest.approx(-1 / SQ2)
        assert (1, 1) not in out.terms

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fourier_matrix_unitary(self, d):
        f = fock.fourier_matrix(d)
        assert np.allclose(f @ f.conj().T, np.eye(d), atol=1e-12)
        assert np.allclose(f[:, 0], np.ones(d) / math.sqrt(d))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_unitary_preserves_norm_and_number(self, seed):
        st = fock.FockState(4, {(1, 0, 2, 0): 0.8, (0, 1, 0, 2): 0.6j})
        u = fock.ModeUnitary((0, 1, 2, 3), random_unitary(4, seed))
        out = fock.apply_mode_unitary(st, u)
        assert out.norm_sq() == pytest.approx(1, abs=1e-10)
        assert oracle_photon_numbers(out) == {3}

    def test_composition_matches_matrix_product(self):
        u1 = random_unitary(3, 2)
        u2 = random_unitary(3, 3)
        st = fock.FockState(3, {(1, 1, 0): 1.0})
        seq = fock.apply_mode_unitary(
            fock.apply_mode_unitary(st, fock.ModeUnitary((0, 1, 2), u1)),
            fock.ModeUnitary((0, 1, 2), u2))
        direct = fock.apply_mode_unitary(st, fock.ModeUnitary((0, 1, 2), u2 @ u1))
        assert seq.terms.keys() == direct.terms.keys()
        assert max(abs(a - direct.terms[o]) for o, a in seq.terms.items()) <= 1e-10

    SWAP = ((2, 0), [[0, 1], [1, 0]])
    # a splitter on modes 0 and 1 that leaves mode 2 alone
    SPLITTER = ((0, 1, 2), [[0.6, 0.8, 0], [0.8, -0.6, 0], [0, 0, 1]])

    @pytest.mark.parametrize("unitary, terms, want", [
        (SWAP, {(1, 0, 0): 0.6, (0, 1, 0): 0.8j}, {(0, 0, 1): 0.6, (0, 1, 0): 0.8j}),
        (SWAP, {(2, 0, 0): 0.6, (1, 1, 0): 0.8}, {(0, 0, 2): 0.6, (0, 1, 1): 0.8}),
        (SPLITTER, {(1, 0, 0): 1.0}, {(1, 0, 0): 0.6, (0, 1, 0): 0.8}),
        (SPLITTER, {(0, 0, 1): 1.0}, {(0, 0, 1): 1.0}),
        # (0.6 a0 + 0.8 a1)(0.8 a0 - 0.6 a1) a2 = (0.48 a0^2 + 0.28 a0 a1 - 0.48 a1^2) a2
        (SPLITTER, {(1, 1, 1): 1.0},
         {(2, 0, 1): 0.48 * SQ2, (1, 1, 1): 0.28, (0, 2, 1): -0.48 * SQ2}),
    ], ids=["swap-one-photon", "swap-two-photons", "splitter", "splitter-spectator",
            "splitter-interference-with-spectator"])
    def test_unitary_with_zero_entries(self, unitary, terms, want):
        """Every term a zero entry contributes vanishes from the image."""
        out = fock.apply_mode_unitary(fock.FockState(3, terms), fock.ModeUnitary(*unitary))
        assert out.terms.keys() == want.keys()
        assert all(out.terms[o] == pytest.approx(a, abs=1e-15) for o, a in want.items())

    def test_non_unitary_rejected(self):
        with pytest.raises(fock.FockError):
            fock.ModeUnitary((0, 1), np.array([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: fock.FockState(2, {(1,): 1.0}), "bad occupation vector",
                     id="occupation-length"),
        pytest.param(lambda: fock.FockState(2, {(2, -1): 1.0}), "bad occupation vector",
                     id="negative-occupation"),
        pytest.param(lambda: fock.ModeUnitary((0, 0), np.eye(2)), "distinct",
                     id="repeated-modes"),
        pytest.param(lambda: fock.apply_mode_unitary(fock.FockState(2, {(1, 0): 1.0}),
                                                     fock.ModeUnitary((1, 2), np.eye(2))),
                     "mode 2 out of range", id="mode-out-of-range"),
    ])
    def test_bad_input_raises(self, call, match):
        with pytest.raises(fock.FockError, match=match):
            call()


class TestTeleportation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("amps", [(1, 0), (0, 1), (1 / SQ2, 1 / SQ2),
                                      (0.6, 0.8j)])
    def test_success_probability(self, n, amps):
        p = fock.teleport_success_probability(n, *amps)
        assert p == pytest.approx(n / (n + 1), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_success_branches_carry_input(self, n):
        """A success row p with k photons holds only x = 0 (from i = k) and
        x = 1 (from i = k-1), at equal magnitude, so one phase on the output
        mode restores the input."""
        patterns, t = fock.transfer_tensor(n)
        total = np.add.outer([0, 1], np.arange(n + 1))     # x + i
        successes = 0
        for p, row in zip(patterns, t):
            k = sum(p)
            assert not row[total != k].any()
            if 0 < k < n + 1:
                assert abs(row[0, k]) > 0
                assert abs(abs(row[0, k]) - abs(row[1, k - 1])) <= 1e-12
                successes += 1
        assert successes > 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_failure_branches_collapse_input(self, n):
        """k = 0 reads the input as |0>, k = n+1 as |1>."""
        a, b = 0.6, 0.8
        patterns, t = fock.transfer_tensor(n)
        k = np.array([sum(p) for p in patterns])
        # different i leave orthogonal leftover modes, so their weights add
        prob = (np.abs(a * t[:, 0]) ** 2 + np.abs(b * t[:, 1]) ** 2).sum(axis=1) / (n + 1)
        assert math.fsum(prob) == pytest.approx(1, abs=1e-12)
        assert prob[k == 0].sum() == pytest.approx(a * a / (n + 1), abs=1e-12)
        assert prob[k == n + 1].sum() == pytest.approx(b * b / (n + 1), abs=1e-12)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(fock.FockError, match="not normalized"):
            fock.teleport_success_probability(2, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Sparse oracle: the gate expanded branch by branch over occupation dicts
# ---------------------------------------------------------------------------


@dataclass
class OracleBranch:
    pattern_a: tuple[int, ...]
    pattern_b: tuple[int, ...]
    probability: float
    success: bool
    state: fock.FockState | None    # corrected joint state on joint success
    rails: tuple[int, int, int, int] | None  # (a0, a1', b0, b1') mode indices


def oracle_dual_rail(alpha, beta):
    """Dual-rail qubit on two modes: |0> = photon in mode 0, |1> = mode 1."""
    return fock.FockState(2, {(1, 0): alpha, (0, 1): beta})


def oracle_photon_numbers(state):
    return {sum(o) for o in state.terms}


def oracle_tensor(a, b):
    return fock.FockState(a.modes + b.modes,
                          {o1 + o2: a1 * a2 for o1, a1 in a.terms.items()
                           for o2, a2 in b.terms.items()}, check_norm=False)


def oracle_tn_occupation(n, i):
    """|t_n^i>: 2n modes, i occupied, n-i empty, i empty, n-i occupied."""
    return (1,) * i + (0,) * (n - i) + (0,) * i + (1,) * (n - i)


def oracle_cs_state(n):
    """|CS_n> = sum_{i,j} s_ij |t_n^i>|t_n^j> on 4n modes."""
    s = fock.cs_amplitudes(n)
    occ = [oracle_tn_occupation(n, i) for i in range(n + 1)]
    return fock.FockState(4 * n, {occ[i] + occ[j]: s[i, j]
                                  for i in range(n + 1) for j in range(n + 1)})


def oracle_mode_phase(state, mode, phase):
    """Multiply amplitudes by phase^(occupation of mode)."""
    return fock.FockState(state.modes,
                          {occ: amp * phase ** occ[mode] for occ, amp in state.terms.items()},
                          check_norm=False)


def oracle_measure_modes(state, modes):
    """Photon-count all listed modes; branch states keep the measured modes
    pinned at the detected occupation."""
    groups = {}
    for occ, amp in state.terms.items():
        groups.setdefault(tuple(occ[m] for m in modes), {})[occ] = amp
    branches = []
    for pattern in sorted(groups):
        sub = groups[pattern]
        prob = sum(abs(a) ** 2 for a in sub.values())
        if prob < 1e-20:
            continue
        scale = 1.0 / math.sqrt(prob)
        branches.append((pattern, prob,
                         fock.FockState(state.modes, {o: a * scale for o, a in sub.items()},
                                        check_norm=False)))
    return branches


def oracle_teleport_events(state, input_mode, anc_start, n):
    """Fourier-transform (input mode, first n ancilla modes) and count them."""
    targets = (input_mode,) + tuple(range(anc_start, anc_start + n))
    transformed = fock.apply_mode_unitary(
        state, fock.ModeUnitary(targets, fock.fourier_matrix(n + 1)))
    for pattern, prob, cond in oracle_measure_modes(transformed, targets):
        yield pattern, sum(pattern), prob, cond


def oracle_cz_via_cs(qubit_a, qubit_b, n):
    """Both rails of two rail pairs teleported through one |CS_n> on the full
    4n+4 modes, with the per-branch phases read from the four basis inputs."""
    cs = oracle_cs_state(n)
    qa, qb = oracle_dual_rail(*qubit_a), oracle_dual_rail(*qubit_b)
    full = oracle_tensor(oracle_tensor(qa, qb), cs)
    anc_a, anc_b = 4, 4 + 2 * n

    def run(state):
        for pa, ka, prob_a, cond_a in oracle_teleport_events(state, 1, anc_a, n):
            for pb, kb, prob_b, cond_b in oracle_teleport_events(cond_a, 3, anc_b, n):
                yield pa, ka, pb, kb, prob_a * prob_b, cond_b

    basis_amp = {}
    for x in (0, 1):
        for y in (0, 1):
            ref = oracle_tensor(oracle_tensor(oracle_dual_rail(1 - x, x),
                                              oracle_dual_rail(1 - y, y)), cs)
            for pa, ka, pb, kb, prob, cond in run(ref):
                if 0 < ka < n + 1 and 0 < kb < n + 1:
                    assert len(cond.terms) == 1
                    amp = next(iter(cond.terms.values())) * math.sqrt(prob)
                    basis_amp.setdefault((pa, pb), {})[(x, y)] = amp

    branches = []
    for pa, ka, pb, kb, prob, cond in run(full):
        if not (0 < ka < n + 1 and 0 < kb < n + 1):
            branches.append(OracleBranch(pa, pb, prob, False, None, None))
            continue
        out_a, out_b = anc_a + n + ka - 1, anc_b + n + kb - 1
        d = basis_amp[(pa, pb)]
        mags = [abs(v) for v in d.values()]
        assert max(mags) - min(mags) <= 1e-10
        phase_a = d[(0, 0)] / d[(1, 0)]
        phase_b = d[(0, 0)] / d[(0, 1)]
        assert abs(d[(1, 1)] * phase_a * phase_b / d[(0, 0)] + 1) <= 1e-9
        corrected = oracle_mode_phase(oracle_mode_phase(cond, out_a, phase_a), out_b, phase_b)
        branches.append(OracleBranch(pa, pb, prob, True, corrected, (0, out_a, 2, out_b)))
    return branches


def oracle_rail_amplitudes(branch):
    """The 2x2 amplitudes c_xy read off the rails of a joint-success state."""
    a0, a1, b0, b1 = branch.rails
    out = np.zeros((2, 2), dtype=complex)
    rests = set()
    for occ, amp in branch.state.terms.items():
        x, y = occ[a1], occ[b1]
        assert occ[a0] + x == 1 and occ[b0] + y == 1
        rests.add(tuple(o for m, o in enumerate(occ) if m not in branch.rails))
        out[x, y] = amp
    assert len(rests) == 1, "output rails are entangled with leftover modes"
    return out


class TestOracleTensor:
    def test_tensor_of_single_photons(self):
        ab = oracle_tensor(fock.FockState(2, {(1, 0): 1.0}), fock.FockState(2, {(0, 1): 1.0}))
        assert ab.modes == 4
        assert ab.terms == {(1, 0, 0, 1): (1 + 0j)}
        assert oracle_photon_numbers(ab) == {2}


class TestAncillaStates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_resource_state_structure(self, n):
        """sum_i |t_n^i> / sqrt(n+1) spans 2n modes in n+1 terms of n photons,
        and teleporting through it succeeds with the probability the
        transfer tensor gives."""
        t = fock.FockState(2 * n, {oracle_tn_occupation(n, i): 1 / math.sqrt(n + 1)
                                   for i in range(n + 1)})
        assert t.modes == 2 * n
        assert len(t.terms) == n + 1
        assert oracle_photon_numbers(t) == {n}
        assert t.norm_sq() == pytest.approx(1)
        a, b = 0.6, 0.8j
        state = oracle_tensor(oracle_dual_rail(a, b), t)
        p = math.fsum(prob for _, k, prob, _ in oracle_teleport_events(state, 1, 2, n)
                      if 0 < k < n + 1)
        assert p == pytest.approx(n / (n + 1), abs=1e-12)
        assert p == pytest.approx(fock.teleport_success_probability(n, a, b), abs=1e-12)

    @pytest.mark.parametrize("n,i,occ", [
        (2, 0, (0, 0, 1, 1)),
        (2, 1, (1, 0, 0, 1)),
        (2, 2, (1, 1, 0, 0)),
    ])
    def test_tn_occupations(self, n, i, occ):
        assert oracle_tn_occupation(n, i) == occ

    @pytest.mark.parametrize("n", [1, 2])
    def test_cs_signs(self, n):
        cs = oracle_cs_state(n)
        assert cs.modes == 4 * n
        assert cs.norm_sq() == pytest.approx(1)
        for i in range(n + 1):
            occ_i = oracle_tn_occupation(n, i)
            for j in range(n + 1):
                amp = cs.terms[occ_i + oracle_tn_occupation(n, j)]
                assert amp == pytest.approx((-1) ** ((n - i) * (n - j)) / (n + 1))


INPUTS = {
    "plus-plus": ((1 / SQ2, 1 / SQ2), (1 / SQ2, 1 / SQ2)),
    "complex": ((0.6, 0.8j), (1 / math.sqrt(3), math.sqrt(2 / 3))),
    "zero-one": ((1, 0), (0, 1)),
    "one-one": ((0, 1), (0, 1)),
}


# ---------------------------------------------------------------------------
# Pairwise oracle: the branch tensor d[pa, pb, x, y] over every pattern pair
# ---------------------------------------------------------------------------


@dataclass
class PairwiseBranches:
    patterns: list[tuple[int, ...]]
    index_a: np.ndarray             # row of pattern_a in ``patterns``, per branch
    index_b: np.ndarray
    probability: np.ndarray
    success: np.ndarray
    rails: np.ndarray               # corrected c_xy of each joint success, (successes, 2, 2)
    fidelities: np.ndarray          # per joint success


def pairwise_cz(qubit_a, qubit_b, n):
    """Every outcome (pa, pb) from d = sum_ij s_ij T[pa, x, i] T[pb, y, j],
    with the phase corrections and the conditional-sign check made per
    branch and branches below 1e-20 dropped."""
    inputs = np.multiply.outer(np.asarray(qubit_a, complex), np.asarray(qubit_b, complex))
    patterns, t = fock.transfer_tensor(n)
    d = np.einsum("ij,axi,byj->abxy", fock.cs_amplitudes(n), t, t, optimize=True)
    amps = d * inputs
    prob = (amps.real ** 2 + amps.imag ** 2).sum(axis=(2, 3))
    index_a, index_b = np.nonzero(prob >= 1e-20)
    k = np.array([sum(p) for p in patterns])
    teleported = (0 < k) & (k < n + 1)
    success = teleported[index_a] & teleported[index_b]
    sa, sb = index_a[success], index_b[success]

    ds = d[sa, sb]
    mags = np.abs(ds).reshape(-1, 4)
    assert (mags.max(axis=1) - mags.min(axis=1)).max(initial=0.0) <= 1e-10
    phase_a = ds[:, 0, 0] / ds[:, 1, 0]
    phase_b = ds[:, 0, 0] / ds[:, 0, 1]
    resid = ds[:, 1, 1] * phase_a * phase_b / ds[:, 0, 0]
    assert np.abs(resid + 1.0).max(initial=0.0) <= 1e-9
    fix_a = np.stack([np.ones_like(phase_a), phase_a], axis=1)[:, :, None]
    fix_b = np.stack([np.ones_like(phase_b), phase_b], axis=1)[:, None, :]
    rails = amps[sa, sb] * fix_a * fix_b / np.sqrt(prob[sa, sb])[:, None, None]
    ideal = fock.cz_ideal(qubit_a, qubit_b).reshape(-1)
    got = rails.reshape(-1, 4)
    norms = (got.real ** 2 + got.imag ** 2).sum(axis=1) * np.vdot(ideal, ideal).real
    fidelities = np.abs(np.einsum("bi,i->b", got, ideal.conj())) ** 2 / norms
    return PairwiseBranches(patterns, index_a, index_b, prob[index_a, index_b], success,
                            rails, fidelities)


class TestAgainstSparseOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", list(INPUTS))
    def test_branches_match_oracle(self, n, name):
        qa, qb = INPUTS[name]
        want = oracle_cz_via_cs(qa, qb, n)
        got = pairwise_cz(qa, qb, n)
        pats = got.patterns
        assert ([(pats[a], pats[b], ok) for a, b, ok in
                 zip(got.index_a.tolist(), got.index_b.tolist(), got.success.tolist())]
                == [(b.pattern_a, b.pattern_b, b.success) for b in want])
        assert np.abs(got.probability - [b.probability for b in want]).max() <= 1e-15
        rails = np.array([oracle_rail_amplitudes(w) for w in want if w.success])
        assert got.rails.shape == rails.shape
        assert np.abs(got.rails - rails).max(initial=0.0) <= 1e-12
        assert len(fock.cz_via_cs(qa, qb, n)) == len(want)


class TestAgainstPairwiseOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(INPUTS))
    def test_report_matches_oracle(self, n, name):
        """Branches (the ones basis inputs drop included), joint successes,
        success probability, the corrected rails up to a global phase and
        every per-branch fidelity agree with the pairwise oracle."""
        qa, qb = INPUTS[name]
        want = pairwise_cz(qa, qb, n)
        got = fock.cz_via_cs(qa, qb, n)
        assert got.patterns == want.patterns
        live_a, live_b = np.flatnonzero(got.live_a), np.flatnonzero(got.live_b)
        assert len(got) == len(want.probability) == len(live_a) * len(live_b)
        assert np.array_equal(np.repeat(live_a, len(live_b)), want.index_a)
        assert np.array_equal(np.tile(live_b, len(live_a)), want.index_b)

        ka, kb = got.success_totals()
        rep = fock.cz_success_report(n, qa, qb)
        assert rep["branch_count"] == len(want.probability)
        assert rep["success_branches"] == len(ka) * len(kb) == want.success.sum()
        # both read the same T; the per-total sums add at most P pattern
        # weights a side in order (P eps / 2 relative each), the oracle's
        # fsum of branch terms is within a few ulps
        assert (abs(rep["success_probability"] - math.fsum(want.probability[want.success]))
                <= 2 * len(got.patterns) * EPS)
        blocks = got.rails[ka[:, None] - 1, kb - 1].reshape(-1, 2, 2)
        overlap = np.abs(np.einsum("bxy,bxy->b", blocks.conj(), want.rails))
        assert np.abs(overlap - 1).max() <= 1e-12
        assert np.abs(np.array(rep["branch_fidelities"]) - want.fidelities).max() <= 1e-12
        # both paths give n^2/(n+1)^2 whatever the input, and the gate is CZ
        for prob in (rep["success_probability"], math.fsum(want.probability[want.success])):
            assert abs(prob - float(analytics.cz_success(n))) <= 4 * rep["branch_count"] * EPS
        assert rep["min_success_fidelity"] >= 1 - 1e-10
        assert want.fidelities.min() >= 1 - 1e-10


class TestGateMutations:
    def test_unsigned_cs_state_is_caught(self, monkeypatch):
        monkeypatch.setattr(fock, "cs_amplitudes",
                            lambda n: np.full((n + 1, n + 1), 1.0 / (n + 1)))
        with pytest.raises(fock.FockError, match="lacks the conditional sign"):
            fock.cz_success_report(2)

    @pytest.mark.parametrize("i", range(3))
    @pytest.mark.parametrize("j", range(3))
    def test_one_flipped_cs_amplitude_is_caught(self, monkeypatch, i, j):
        """Every s_ij lies in some 2x2 block, whose residual then reads +1."""
        signed = fock.cs_amplitudes

        def flipped(n):
            s = signed(n)
            s[i, j] = -s[i, j]
            return s
        monkeypatch.setattr(fock, "cs_amplitudes", flipped)
        with pytest.raises(fock.FockError, match="lacks the conditional sign"):
            fock.cz_success_report(2)

    def test_entry_off_support_is_caught(self, monkeypatch):
        """An entry of T at i != |p| - x, however small, breaks photon-number
        conservation, for the gate and for a single teleport alike."""
        exact = fock.transfer_tensor

        def leaky(n):
            patterns, t = exact(n)
            t[patterns.index((1,) + (0,) * n), 0, 0] = 1e-30     # |p| = 1, x = 0, i = 0
            return patterns, t
        monkeypatch.setattr(fock, "transfer_tensor", leaky)
        with pytest.raises(fock.FockError, match="off i = |p| - x"):
            fock.cz_success_report(2)
        with pytest.raises(fock.FockError, match="off i = |p| - x"):
            fock.teleport_success_probability(2, *fock._PLUS)

    def test_unbalanced_pattern_is_caught(self, monkeypatch):
        exact = fock.transfer_tensor

        def unbalanced(n):
            patterns, t = exact(n)
            t[patterns.index((1,) + (0,) * n), 1, 0] *= 1.001
            return patterns, t
        monkeypatch.setattr(fock, "transfer_tensor", unbalanced)
        with pytest.raises(fock.FockError, match="unbalanced"):
            fock.cz_success_report(2)

    def test_unbalanced_cs_block_is_caught(self, monkeypatch):
        """A block whose magnitudes differ makes its corrections no phases,
        even where the residual still reads -1."""
        signed = fock.cs_amplitudes

        def scaled(n):
            s = signed(n)
            s[0] *= 1.5
            return s / np.linalg.norm(s)
        monkeypatch.setattr(fock, "cs_amplitudes", scaled)
        with pytest.raises(fock.FockError, match="block are unbalanced"):
            fock.cz_success_report(2)

    def test_dropped_b_correction_is_caught(self, monkeypatch):
        """The gate with phi_b left out of the rail correction fails the
        fidelity gate."""
        line = "np.stack([np.ones_like(phase_b), phase_b], axis=-1)"
        source = inspect.getsource(fock)
        assert line in source
        mutant = types.ModuleType("freearm.fock_mutant")
        mutant.__package__ = "freearm"
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(line, "np.ones(phase_b.shape + (2,))"),
                     fock.__file__, "exec"), mutant.__dict__)
        assert fock.cz_success_report(2)["min_success_fidelity"] >= 1 - 1e-10
        assert mutant.cz_success_report(2)["min_success_fidelity"] < 1 - 1e-10


class TestBranchCounts:
    @pytest.mark.parametrize("n,branches,successes", [(1, 25, 4), (2, 196, 81),
                                                      (3, 1849, 1024), (4, 23104, 15625),
                                                      (5, 196249, 139876)])
    def test_pinned_counts(self, n, branches, successes):
        rep = fock.cz_success_report(n)
        assert (rep["branch_count"], rep["success_branches"]) == (branches, successes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_inputs_drop_branches(self, n):
        """|0>|1> never detects n+1 photons on side a nor 0 on side b, so no
        branch has those totals."""
        got = fock.cz_via_cs(*INPUTS["zero-one"], n)
        assert got.totals[got.live_a].max() <= n and got.totals[got.live_b].min() >= 1
        plus = fock.cz_success_report(n)["branch_count"]
        assert len(got) < plus


class TestConditionalPhase:
    @pytest.mark.parametrize("n,expected", [(1, 1 / 4), (2, 4 / 9), (3, 9 / 16),
                                            (4, 16 / 25), (5, 25 / 36)])
    def test_joint_success_probability(self, n, expected):
        rep = fock.cz_success_report(n)
        assert rep["success_probability"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_all_success_branches_ideal(self, n):
        rep = fock.cz_success_report(n)
        assert rep["min_success_fidelity"] >= 1 - 1e-10
        assert len(rep["branch_fidelities"]) == rep["success_branches"]

    def test_minus_sign_on_both_excited(self):
        """The |11> input picks up exactly the conditional minus sign."""
        qa = qb = (0, 1)
        for amps in fock.cz_via_cs(qa, qb, 2).rails.reshape(-1, 2, 2):
            phase_free = amps / amps[1, 1]
            assert abs(abs(amps[1, 1]) - 1) < 1e-10
            assert np.allclose(phase_free, [[0, 0], [0, 1]], atol=1e-10)
        ideal = fock.cz_ideal(qa, qb)
        assert ideal[1, 1] == -1

    def test_entangling_action(self):
        """|+>|+> leaves the gate entangled: Schmidt-rank-2 rail amplitudes."""
        rep = fock.cz_success_report(2)
        assert rep["order"] == 2
        plus = (1 / SQ2, 1 / SQ2)
        amps = fock.cz_via_cs(plus, plus, 1).rails[0, 0]    # the one block at order 1
        s = np.linalg.svd(amps, compute_uv=False)
        assert s[1] > 0.1

    @pytest.mark.parametrize("n", [0, 6])
    def test_order_cap(self, n):
        q = (1, 0)
        with pytest.raises(fock.OrderCapError, match="order must be 1 to 5"):
            fock.cz_via_cs(q, q, n)

    def test_dual_rail_required(self):
        """Each qubit is a rail pair (alpha, beta) of unit norm."""
        with pytest.raises(fock.FockError, match="rail pair"):
            fock.cz_via_cs((0.6, 0.8, 0), (1, 0), 1)
        with pytest.raises(fock.FockError, match="not normalized"):
            fock.cz_via_cs((1, 0), (1, 1), 1)
