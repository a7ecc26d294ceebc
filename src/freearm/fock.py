"""Photon-level simulation of the teleportation-based gate primitives.

Occupation vectors are small integer tuples mapped to complex amplitudes.
The module builds the |t_n^i> ancilla configurations and the 2n-photon
conditional-sign state |CS_n>, applies passive mode unitaries exactly
(including the (n+1)-mode Fourier transform) and enumerates photon-counting
outcomes of a teleportation.

The conditional-phase gate teleports both rails through the two halves of
one |CS_n> on disjoint modes, so each joint branch amplitude factorizes over
the single-teleport transfer tensor T[p, x, i] = <p| F_{n+1} |x, 1^i 0^{n-i}>,
built from 2(n+1) basis inputs by the same mode-unitary code, and the gate
report is a few array operations on T.  Desk scale only: orders up to 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import InputError, cz_success

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


def cs_amplitudes(n: int) -> np.ndarray:
    """s_ij = (-1)^{(n-i)(n-j)} / (n+1), the |CS_n> amplitude of |t_n^i>|t_n^j>."""
    empty = n - np.arange(n + 1)
    return (-1.0) ** np.outer(empty, empty) / (n + 1)


def make_cs_state(n: int) -> FockState:
    """|CS_n> = sum_{i,j} s_ij |t_n^i>|t_n^j> on 4n modes."""
    if n < 1:
        raise OrderCapError("order must be >= 1")
    s = cs_amplitudes(n)
    occ = [next(iter(make_tn_state(n, i).terms)) for i in range(n + 1)]
    return FockState(4 * n, {occ[i] + occ[j]: s[i, j]
                             for i in range(n + 1) for j in range(n + 1)})


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


def transfer_tensor(n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Single-teleport transfer tensor over the n+1 measured modes.

    Returns the detection patterns p in lexicographic order and
    T[p, x, i] = <p| F_{n+1} |x, 1^i 0^{n-i}>: the input mode holds x photons
    and the first n modes of |t_n^i> hold i.  Photon number is conserved, so
    T[p, x, i] is nonzero only when |p| = x + i.
    """
    fourier = ModeUnitary(tuple(range(n + 1)), fourier_matrix(n + 1))
    outputs = {(x, i): apply_mode_unitary(
                   FockState(n + 1, {(x,) + (1,) * i + (0,) * (n - i): 1.0}), fourier).terms
               for x in (0, 1) for i in range(n + 1)}
    patterns = sorted(set().union(*outputs.values()))
    row = {p: r for r, p in enumerate(patterns)}
    t = np.zeros((len(patterns), 2, n + 1), dtype=complex)
    for (x, i), terms in outputs.items():
        for p, amp in terms.items():
            t[row[p], x, i] = amp
    return patterns, t


@dataclass
class TeleportBranch:
    """One photon-counting outcome of a teleportation attempt."""

    pattern: tuple[int, ...]        # counts on the measured modes
    photon_total: int               # k; success iff 0 < k < n+1
    success: bool
    probability: float
    state: FockState                # conditional state, phase-corrected on success
    output_mode: int | None


def f_teleport(state: FockState, input_mode: int, ancilla: FockState, n: int
               ) -> list[TeleportBranch]:
    """Teleport the photon-number qubit in ``input_mode`` through ``ancilla``.

    The ancilla is the 2n-mode teleportation resource.  The input mode joins
    its first n modes under the (n+1)-mode Fourier transform and those modes
    are photon-counted.  Success branches (detected total k with 0 < k < n+1)
    carry the input amplitudes on ancilla mode n+k, with the unit phase
    T[p, 0, k] / T[p, 1, k-1] of the transfer tensor corrected; failures
    collapse the input (k = 0 reads |0>, k = n+1 reads |1>).
    """
    if ancilla.modes != 2 * n or ancilla.fidelity(make_t_resource(n)) < 1 - 1e-10:
        raise FockError(f"ancilla must be the {2 * n}-mode teleportation resource")
    if not 0 <= input_mode < state.modes:
        raise FockError("input mode out of range")
    if any(occ[input_mode] > 1 for occ in state.terms):
        raise FockError("input mode must hold at most one photon")
    patterns, t = transfer_tensor(n)
    row = {p: r for r, p in enumerate(patterns)}
    anc_start = state.modes
    targets = (input_mode,) + tuple(range(anc_start, anc_start + n))
    transformed = apply_mode_unitary(state.tensor(ancilla),
                                     ModeUnitary(targets, fourier_matrix(n + 1)))
    branches = []
    for pattern, prob, cond in measure_modes(transformed, targets):
        k = sum(pattern)
        success = 0 < k < n + 1
        output_mode = anc_start + n + k - 1 if success else None
        if success:
            m0, m1 = t[row[pattern], 0, k], t[row[pattern], 1, k - 1]
            if abs(abs(m0) - abs(m1)) > 1e-10:
                raise FockError("success branch amplitudes are unbalanced")
            cond = _apply_mode_phase(cond, output_mode, complex(m0 / m1))
        branches.append(TeleportBranch(pattern, k, success, prob, cond, output_mode))
    return branches


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
    rails: np.ndarray | None        # corrected c_xy amplitudes on joint success


@dataclass
class CzBranches:
    """The outcomes of one gate attempt in lexicographic (pattern_a, pattern_b)
    order, held as arrays; iterating builds one ``CzBranch`` at a time."""

    patterns: list[tuple[int, ...]]
    index_a: np.ndarray             # row of pattern_a in ``patterns``, per branch
    index_b: np.ndarray
    probability: np.ndarray
    success: np.ndarray
    rails: np.ndarray               # (joint successes, 2, 2) corrected amplitudes

    def __len__(self) -> int:
        return len(self.probability)

    def __iter__(self):
        rails = iter(self.rails)
        for a, b, prob, ok in zip(self.index_a, self.index_b, self.probability,
                                  self.success):
            yield CzBranch(self.patterns[a], self.patterns[b], float(prob), bool(ok),
                           next(rails) if ok else None)


def _rail_vector(qubit: FockState) -> np.ndarray:
    return np.array([qubit.terms.get((1, 0), 0j), qubit.terms.get((0, 1), 0j)])


def cz_via_cs(qubit_a: FockState, qubit_b: FockState, n: int) -> CzBranches:
    """Probabilistic conditional-phase gate on two dual-rail qubits.

    Both occupied rails are teleported through the two halves of one |CS_n>;
    the gate succeeds when both teleportations do (probability n^2/(n+1)^2),
    and every joint-success branch is phase-corrected so that the surviving
    rail amplitudes equal the conditional-phase image of the input.

    Outcome (pa, pb) leaves rail values (x, y) with amplitude
    alpha_x beta_y d[pa, pb, x, y], d = sum_ij s_ij T[pa, x, i] T[pb, y, j].
    The leftover modes record x and y (the untouched rail keeps 1 - x), so
    different (x, y) are orthogonal and a branch's probability is the sum of
    their squared magnitudes.  Branches below 1e-20 are dropped.
    """
    if n not in (1, 2, 3):
        raise OrderCapError("desk-scale cap: order must be 1, 2 or 3")
    for q in (qubit_a, qubit_b):
        if q.modes != 2 or q.photon_numbers() != {1}:
            raise FockError("inputs must be dual-rail encoded (2 modes, 1 photon)")
    patterns, t = transfer_tensor(n)
    d = np.einsum("ij,axi,byj->abxy", cs_amplitudes(n), t, t, optimize=True)
    amps = d * np.multiply.outer(_rail_vector(qubit_a), _rail_vector(qubit_b))
    prob = (amps.real ** 2 + amps.imag ** 2).sum(axis=(2, 3))
    index_a, index_b = np.nonzero(prob >= 1e-20)
    k = np.array([sum(p) for p in patterns])
    teleported = (0 < k) & (k < n + 1)
    success = teleported[index_a] & teleported[index_b]
    sa, sb = index_a[success], index_b[success]

    ds = d[sa, sb]
    mags = np.abs(ds).reshape(-1, 4)
    if (mags.max(axis=1) - mags.min(axis=1)).max(initial=0.0) > 1e-10:
        raise FockError("success branch amplitudes are unbalanced")
    phase_a = ds[:, 0, 0] / ds[:, 1, 0]
    phase_b = ds[:, 0, 0] / ds[:, 0, 1]
    # conditional sign check: the residual two-photon term must be negated
    resid = ds[:, 1, 1] * phase_a * phase_b / ds[:, 0, 0]
    miss = np.abs(resid + 1.0)
    if miss.max(initial=0.0) > 1e-9:
        raise FockError(f"branch lacks the conditional sign: residual {resid[miss.argmax()]}")
    # corrected c_xy = alpha_x beta_y d_xy phase_a^x phase_b^y, normalized
    fix_a = np.stack([np.ones_like(phase_a), phase_a], axis=1)[:, :, None]
    fix_b = np.stack([np.ones_like(phase_b), phase_b], axis=1)[:, None, :]
    rails = amps[sa, sb] * fix_a * fix_b / np.sqrt(prob[sa, sb])[:, None, None]
    return CzBranches(patterns, index_a, index_b, prob[index_a, index_b], success, rails)


def rail_amplitudes(branch: CzBranch) -> np.ndarray:
    """The corrected 2x2 qubit amplitudes c_xy of a joint-success branch."""
    if branch.rails is None:
        raise FockError("only joint-success branches carry rail amplitudes")
    return branch.rails


def cz_ideal(qubit_a: FockState, qubit_b: FockState) -> np.ndarray:
    """The conditional-phase image of the two input qubits, as c_xy amplitudes."""
    amps = np.zeros((2, 2), dtype=complex)
    for (oa, aa) in qubit_a.terms.items():
        for (ob, ab) in qubit_b.terms.items():
            x, y = oa[1], ob[1]
            amps[x, y] = aa * ab * (-1) ** (x * y)
    return amps


def teleport_success_probability(n: int, alpha: complex, beta: complex) -> float:
    """Total success probability of one teleportation of alpha|0> + beta|1>
    through the standalone resource sum_i |t_n^i> / sqrt(n+1).

    A success pattern p with k photons leaves x = 0 (from i = k) and x = 1
    (from i = k-1) on orthogonal leftover modes, so it has probability
    (|alpha T[p, 0, k]|^2 + |beta T[p, 1, k-1]|^2) / (n+1).
    """
    FockState(1, {(0,): alpha, (1,): beta})     # rejects an unnormalized input
    patterns, t = transfer_tensor(n)
    k = np.array([sum(p) for p in patterns])
    rows = np.flatnonzero((0 < k) & (k < n + 1))
    weights = (np.abs(alpha * t[rows, 0, k[rows]]) ** 2
               + np.abs(beta * t[rows, 1, k[rows] - 1]) ** 2)
    return math.fsum(weights) / (n + 1)


def cz_success_report(n: int, qubit_a: FockState | None = None,
                      qubit_b: FockState | None = None) -> dict:
    """Machine-readable verification report for the conditional-phase gate."""
    s = 1 / math.sqrt(2)
    qubit_a = qubit_a or dual_rail(s, s)
    qubit_b = qubit_b or dual_rail(s, s)
    branches = cz_via_cs(qubit_a, qubit_b, n)
    ideal = cz_ideal(qubit_a, qubit_b).reshape(-1)
    got = branches.rails.reshape(-1, 4)
    norms = (got.real ** 2 + got.imag ** 2).sum(axis=1) * np.vdot(ideal, ideal).real
    # einsum, not a BLAS matvec: a threaded zgemv on 1,024 x 4 takes milliseconds
    fidelities = np.abs(np.einsum("bi,i->b", got, ideal.conj())) ** 2 / norms
    return {
        "order": n,
        "branch_count": len(branches),
        "success_branches": len(fidelities),
        "success_probability": math.fsum(branches.probability[branches.success]),
        "expected_success_probability": float(cz_success(n)),
        "success_fidelities": fidelities.tolist(),
        "min_success_fidelity": float(fidelities.min()),
    }
