"""Sparse Fock-space simulation of the teleportation-based gate primitives.

Occupation vectors are small integer tuples mapped to complex amplitudes.
The module builds the |t_n^i> ancilla configurations and the 2n-photon
conditional-sign state |CS_n>, applies passive mode unitaries exactly
(including the (n+1)-mode Fourier transform), enumerates photon-counting
outcomes, and composes two teleportations into the probabilistic
conditional-phase gate, verifying success probabilities and the gate action
branch by branch.

Desk scale only: orders up to 3, term counts in the low thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import InputError

_AMP_EPS = 1e-14


class FockError(Exception):
    pass


class OrderCapError(FockError, InputError):
    pass


class FockState:
    """Sparse map from occupation vectors to complex amplitudes."""

    __slots__ = ("modes", "terms")

    def __init__(self, modes: int, terms: dict, check_norm: bool = True):
        self.modes = modes
        clean = {}
        for occ, amp in terms.items():
            if len(occ) != modes or any(o < 0 for o in occ):
                raise FockError(f"bad occupation vector {occ} for {modes} modes")
            if abs(amp) > _AMP_EPS:
                clean[tuple(occ)] = complex(amp)
        self.terms = clean
        if check_norm and abs(self.norm_sq() - 1.0) > 1e-10:
            raise FockError(f"state is not normalized (|psi|^2 = {self.norm_sq()})")

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def normalized(self) -> "FockState":
        n = math.sqrt(self.norm_sq())
        return FockState(self.modes, {o: a / n for o, a in self.terms.items()},
                         check_norm=False)

    def tensor(self, other: "FockState") -> "FockState":
        terms = {}
        for o1, a1 in self.terms.items():
            for o2, a2 in other.terms.items():
                terms[o1 + o2] = a1 * a2
        return FockState(self.modes + other.modes, terms, check_norm=False)

    def photon_numbers(self) -> set[int]:
        return {sum(o) for o in self.terms}

    def overlap(self, other: "FockState") -> complex:
        if self.modes != other.modes:
            raise FockError("mode counts differ")
        return sum(a * other.terms.get(o, 0j).conjugate() for o, a in self.terms.items())

    def fidelity(self, other: "FockState") -> float:
        return abs(self.overlap(other)) ** 2


def vacuum(modes: int) -> FockState:
    return FockState(modes, {(0,) * modes: 1.0})


def single_photon(modes: int, mode: int) -> FockState:
    occ = [0] * modes
    occ[mode] = 1
    return FockState(modes, {tuple(occ): 1.0})


def dual_rail(alpha: complex, beta: complex) -> FockState:
    """Dual-rail qubit on two modes: |0> = photon in mode 0, |1> = mode 1."""
    return FockState(2, {(1, 0): alpha, (0, 1): beta})


def make_tn_state(n: int, i: int) -> FockState:
    """|t_n^i>: 2n modes, i occupied, n-i empty, i empty, n-i occupied."""
    if not 0 <= i <= n:
        raise FockError(f"index i must be in [0, {n}], got {i}")
    occ = (1,) * i + (0,) * (n - i) + (0,) * i + (1,) * (n - i)
    return FockState(2 * n, {occ: 1.0})


def make_t_resource(n: int) -> FockState:
    """Teleportation resource sum_i |t_n^i> / sqrt(n+1) on 2n modes."""
    if n < 1:
        raise OrderCapError("order must be >= 1")
    amp = 1.0 / math.sqrt(n + 1)
    terms = {}
    for i in range(n + 1):
        terms.update({occ: amp for occ in make_tn_state(n, i).terms})
    return FockState(2 * n, terms)


def make_cs_state(n: int) -> FockState:
    """|CS_n> = sum_{i,j} (-1)^{(n-i)(n-j)} |t_n^i>|t_n^j> / (n+1) on 4n modes."""
    if n < 1:
        raise OrderCapError("order must be >= 1")
    terms = {}
    for i in range(n + 1):
        occ_i = next(iter(make_tn_state(n, i).terms))
        for j in range(n + 1):
            occ_j = next(iter(make_tn_state(n, j).terms))
            terms[occ_i + occ_j] = (-1) ** ((n - i) * (n - j)) / (n + 1)
    return FockState(4 * n, terms)


@dataclass(frozen=True)
class ModeUnitary:
    """A passive linear-optics element acting on an ordered subset of modes."""

    modes: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = len(self.modes)
        if len(set(self.modes)) != d:
            raise FockError("target modes must be distinct")
        if m.shape != (d, d) or np.abs(m @ m.conj().T - np.eye(d)).max() > 1e-10:
            raise FockError("matrix must be unitary on the target modes (tol 1e-10)")
        object.__setattr__(self, "matrix", m)


def fourier_matrix(d: int) -> np.ndarray:
    """The d-mode Fourier transform, entries omega^{jk}/sqrt(d)."""
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / math.sqrt(d)


def apply_mode_unitary(state: FockState, u: ModeUnitary) -> FockState:
    """Exact action on creation operators: a_j^dag -> sum_i U_ij a_i^dag."""
    for m in u.modes:
        if not 0 <= m < state.modes:
            raise FockError(f"mode {m} out of range")
    mat = u.matrix
    d = len(u.modes)
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        counts = [occ[m] for m in u.modes]
        base = amp / math.sqrt(math.prod(math.factorial(c) for c in counts))
        # expand prod_j (sum_i U_ij a_i^dag)^{n_j} over the target modes
        poly: dict[tuple[int, ...], complex] = {(0,) * d: base}
        for j, c in enumerate(counts):
            for _ in range(c):
                nxt: dict[tuple[int, ...], complex] = {}
                for added, coef in poly.items():
                    for i in range(d):
                        uij = mat[i, j]
                        if abs(uij) < _AMP_EPS:
                            continue
                        key = added[:i] + (added[i] + 1,) + added[i + 1:]
                        nxt[key] = nxt.get(key, 0j) + coef * uij
                poly = nxt
        for added, coef in poly.items():
            full = list(occ)
            for pos, m in enumerate(u.modes):
                full[m] = added[pos]
            weight = coef * math.sqrt(math.prod(math.factorial(a) for a in added))
            key = tuple(full)
            out[key] = out.get(key, 0j) + weight
    return FockState(state.modes, out, check_norm=False)


def measure_modes(state: FockState, modes: tuple[int, ...]
                  ) -> list[tuple[tuple[int, ...], float, FockState]]:
    """Photon-count all listed modes; branch states keep the measured modes
    pinned at the detected occupation."""
    groups: dict[tuple[int, ...], dict] = {}
    for occ, amp in state.terms.items():
        pattern = tuple(occ[m] for m in modes)
        groups.setdefault(pattern, {})[occ] = amp
    branches = []
    for pattern in sorted(groups):
        sub = groups[pattern]
        prob = sum(abs(a) ** 2 for a in sub.values())
        if prob < 1e-20:
            continue
        scale = 1.0 / math.sqrt(prob)
        branches.append((pattern, prob,
                         FockState(state.modes, {o: a * scale for o, a in sub.items()},
                                   check_norm=False)))
    return branches


@dataclass
class TeleportBranch:
    """One photon-counting outcome of a teleportation attempt."""

    pattern: tuple[int, ...]        # counts on the measured modes
    measured_modes: tuple[int, ...]
    photon_total: int               # k; success iff 0 < k < n+1
    success: bool
    probability: float
    state: FockState                # conditional state, phase-corrected on success
    output_mode: int | None
    phase_correction: complex | None


def _teleport_events(state: FockState, input_mode: int, anc_start: int, n: int):
    """Run one teleportation on a state already containing its 2n ancilla modes.

    Yields (pattern, k, probability, raw conditional state).  Applies the
    (n+1)-mode Fourier transform to (input mode, first n ancilla modes) and
    counts photons there.
    """
    targets = (input_mode,) + tuple(range(anc_start, anc_start + n))
    transformed = apply_mode_unitary(state, ModeUnitary(targets, fourier_matrix(n + 1)))
    for pattern, prob, cond in measure_modes(transformed, targets):
        yield pattern, targets, sum(pattern), prob, cond


def f_teleport(state: FockState, input_mode: int, ancilla: FockState, n: int
               ) -> list[TeleportBranch]:
    """Teleport the photon-number qubit in ``input_mode`` through ``ancilla``.

    The ancilla is a 2n-mode resource (one half of |CS_n> or the standalone
    teleportation superposition).  Success branches (detected total k with
    0 < k < n+1) carry the input amplitudes on ancilla mode n+k with the
    recorded unit phase already corrected; failures collapse the input
    (k = 0 reads |0>, k = n+1 reads |1>).
    """
    if ancilla.modes != 2 * n:
        raise FockError(f"ancilla must have {2 * n} modes")
    if not 0 <= input_mode < state.modes:
        raise FockError("input mode out of range")
    if any(occ[input_mode] > 1 for occ in state.terms):
        raise FockError("input mode must hold at most one photon")
    anc_start = state.modes
    combined = state.tensor(ancilla)
    phase_maps = _phase_maps_for(ancilla, n)
    branches = []
    for pattern, targets, k, prob, cond in _teleport_events(combined, input_mode, anc_start, n):
        success = 0 < k < n + 1
        output_mode = anc_start + n + k - 1 if success else None
        correction = None
        if success:
            m0, m1 = phase_maps[pattern]
            if abs(abs(m0) - abs(m1)) > 1e-10:
                raise FockError("success branch amplitudes are unbalanced")
            correction = m0 / m1
            cond = _apply_mode_phase(cond, output_mode, correction)
        branches.append(TeleportBranch(pattern, targets, k, success, prob, cond,
                                       output_mode, correction))
    return branches


def _phase_maps_for(ancilla: FockState, n: int
                    ) -> dict[tuple[int, ...], tuple[complex, complex]]:
    """Transfer amplitudes (m0, m1) per success pattern for basis inputs."""
    maps: dict[tuple[int, ...], list] = {}
    for x in (0, 1):
        ref = FockState(1, {(x,): 1.0}).tensor(ancilla)
        for pattern, _targets, k, prob, cond in _teleport_events(ref, 0, 1, n):
            if not 0 < k < n + 1:
                continue
            if len(cond.terms) != 1:
                raise FockError("basis input should collapse each branch to one term")
            amp = next(iter(cond.terms.values())) * math.sqrt(prob)
            maps.setdefault(pattern, [None, None])[x] = amp
    return {p: (m[0], m[1]) for p, m in maps.items()
            if m[0] is not None and m[1] is not None}


def _apply_mode_phase(state: FockState, mode: int, phase: complex) -> FockState:
    """Multiply amplitudes by phase^(occupation of mode)."""
    return FockState(state.modes,
                     {occ: amp * phase ** occ[mode] for occ, amp in state.terms.items()},
                     check_norm=False)


@dataclass
class CzBranch:
    """A pair of teleportation outcomes for one conditional-phase attempt."""

    pattern_a: tuple[int, ...]
    pattern_b: tuple[int, ...]
    probability: float
    success: bool
    state: FockState | None         # corrected joint state on joint success
    rails: tuple[int, int, int, int] | None  # (a0, a1', b0, b1') mode indices


def cz_via_cs(qubit_a: FockState, qubit_b: FockState, n: int) -> list[CzBranch]:
    """Probabilistic conditional-phase gate on two dual-rail qubits.

    Both occupied rails are teleported through the two halves of one |CS_n>;
    the gate succeeds when both teleportations do (probability n^2/(n+1)^2),
    and every joint-success branch is phase-corrected so that the surviving
    rail amplitudes equal the conditional-phase image of the input.
    """
    if n not in (1, 2, 3):
        raise OrderCapError("desk-scale cap: order must be 1, 2 or 3")
    for q in (qubit_a, qubit_b):
        if q.modes != 2 or q.photon_numbers() != {1}:
            raise FockError("inputs must be dual-rail encoded (2 modes, 1 photon)")
    cs = make_cs_state(n)
    full = qubit_a.tensor(qubit_b).tensor(cs)
    anc_a, anc_b = 4, 4 + 2 * n

    def run(state):
        for pa, _ta, ka, prob_a, cond_a in _teleport_events(state, 1, anc_a, n):
            for pb, _tb, kb, prob_b, cond_b in _teleport_events(cond_a, 3, anc_b, n):
                yield pa, ka, pb, kb, prob_a * prob_b, cond_b

    # per-branch diagonal transfer phases from the four basis inputs
    basis_amp: dict[tuple, dict[tuple[int, int], complex]] = {}
    for x in (0, 1):
        for y in (0, 1):
            ref = dual_rail(1 - x, x).tensor(dual_rail(1 - y, y)).tensor(cs)
            for pa, ka, pb, kb, prob, cond in run(ref):
                if not (0 < ka < n + 1 and 0 < kb < n + 1):
                    continue
                if len(cond.terms) != 1:
                    raise FockError("basis input should collapse each branch to one term")
                amp = next(iter(cond.terms.values())) * math.sqrt(prob)
                basis_amp.setdefault((pa, pb), {})[(x, y)] = amp

    branches = []
    for pa, ka, pb, kb, prob, cond in run(full):
        success = 0 < ka < n + 1 and 0 < kb < n + 1
        if not success:
            branches.append(CzBranch(pa, pb, prob, False, None, None))
            continue
        out_a = anc_a + n + ka - 1
        out_b = anc_b + n + kb - 1
        d = basis_amp[(pa, pb)]
        mags = [abs(d[k]) for k in ((0, 0), (0, 1), (1, 0), (1, 1))]
        if max(mags) - min(mags) > 1e-10:
            raise FockError("success branch amplitudes are unbalanced")
        phase_a = d[(0, 0)] / d[(1, 0)]
        phase_b = d[(0, 0)] / d[(0, 1)]
        # conditional sign check: the residual two-photon term must be negated
        resid = d[(1, 1)] * phase_a * phase_b / d[(0, 0)]
        if abs(resid + 1.0) > 1e-9:
            raise FockError(f"branch lacks the conditional sign: residual {resid}")
        corrected = _apply_mode_phase(_apply_mode_phase(cond, out_a, phase_a),
                                      out_b, phase_b)
        branches.append(CzBranch(pa, pb, prob, True, corrected,
                                 (0, out_a, 2, out_b)))
    return branches


def rail_amplitudes(branch: CzBranch) -> np.ndarray:
    """Extract the 2x2 qubit amplitudes c_xy from a joint-success branch."""
    a0, a1, b0, b1 = branch.rails
    out = np.zeros((2, 2), dtype=complex)
    seen_rest = None
    for occ, amp in branch.state.terms.items():
        x = occ[a1]
        y = occ[b1]
        if occ[a0] + x != 1 or occ[b0] + y != 1:
            raise FockError("branch is not dual-rail on the output modes")
        rest = tuple(o for m, o in enumerate(occ) if m not in branch.rails)
        if seen_rest is None:
            seen_rest = rest
        elif rest != seen_rest:
            raise FockError("output rails are entangled with leftover modes")
        out[x, y] = amp
    return out


def cz_ideal(qubit_a: FockState, qubit_b: FockState) -> np.ndarray:
    """The conditional-phase image of the two input qubits, as c_xy amplitudes."""
    amps = np.zeros((2, 2), dtype=complex)
    for (oa, aa) in qubit_a.terms.items():
        for (ob, ab) in qubit_b.terms.items():
            x, y = oa[1], ob[1]
            amps[x, y] = aa * ab * (-1) ** (x * y)
    return amps


def teleport_success_probability(n: int, alpha: complex, beta: complex) -> float:
    """Total success probability of one teleportation for a given input qubit."""
    branches = f_teleport(FockState(1, {(0,): alpha, (1,): beta}), 0,
                          make_t_resource(n), n)
    return sum(b.probability for b in branches if b.success)


def cz_success_report(n: int, qubit_a: FockState | None = None,
                      qubit_b: FockState | None = None) -> dict:
    """Machine-readable verification report for the conditional-phase gate."""
    s = 1 / math.sqrt(2)
    qubit_a = qubit_a or dual_rail(s, s)
    qubit_b = qubit_b or dual_rail(s, s)
    branches = cz_via_cs(qubit_a, qubit_b, n)
    ideal = cz_ideal(qubit_a, qubit_b).reshape(-1)
    fidelities = []
    success_prob = 0.0
    for b in branches:
        if not b.success:
            continue
        success_prob += b.probability
        got = rail_amplitudes(b).reshape(-1)
        fidelities.append(abs(np.vdot(ideal, got)) ** 2 / (np.vdot(got, got).real
                                                           * np.vdot(ideal, ideal).real))
    return {
        "order": n,
        "branch_count": len(branches),
        "success_branches": len(fidelities),
        "success_probability": success_prob,
        "expected_success_probability": n * n / (n + 1) ** 2,
        "success_fidelities": fidelities,
        "min_success_fidelity": min(fidelities),
    }
