"""Photon-level simulation of the teleportation-based gate primitives.

:func:`apply_mode_unitary` applies passive mode unitaries (the (n+1)-mode
Fourier transform among them) exactly to a :class:`FockState`, a sparse map
from occupation tuples to amplitudes.  The n-photon ancilla |t_n^i> holds
1^i 0^{n-i} on its first n modes and 0^i 1^{n-i} on the last n; neither it
nor the 2n-photon conditional-sign state |CS_n> = sum_ij s_ij
|t_n^i>|t_n^j> is built as a state.  A teleportation Fourier-transforms the
input mode with the first n ancilla modes and counts them, so every outcome
is read from the single-teleport transfer tensor
T[p, x, i] = <p| F_{n+1} |x, 1^i 0^{n-i}>, built from 2(n+1) basis inputs
by the mode-unitary code.  The conditional-phase gate teleports both rails
through the two halves of one |CS_n> on disjoint modes, so each joint branch
amplitude factorizes over T and the gate report is a few array operations
on T.  The gate takes each dual-rail qubit as its two rail amplitudes
(alpha, beta), the form it computes with.  Desk scale only: orders up to 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import InputError, cz_success

_AMP_EPS = 1e-14
_PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))


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


def _rails(qubit) -> np.ndarray:
    """A dual-rail qubit (photon in mode 0 for |0>, in mode 1 for |1>) as its
    rail amplitudes (alpha, beta), checked for shape and unit norm."""
    rails = np.asarray(qubit)
    if rails.shape != (2,):
        raise FockError(f"a dual-rail qubit is a rail pair (alpha, beta), got {qubit!r}")
    norm_sq = float(np.vdot(rails, rails).real)
    if abs(norm_sq - 1.0) > 1e-10:
        raise FockError(f"qubit is not normalized (|alpha|^2 + |beta|^2 = {norm_sq})")
    return rails.astype(complex)


def cs_amplitudes(n: int) -> np.ndarray:
    """s_ij = (-1)^{(n-i)(n-j)} / (n+1), the |CS_n> amplitude of |t_n^i>|t_n^j>."""
    empty = n - np.arange(n + 1)
    return (-1.0) ** np.outer(empty, empty) / (n + 1)


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
class CzBranches:
    """The outcomes of one gate attempt in lexicographic (pattern_a, pattern_b)
    order, held as arrays; ``len()`` is the branch count."""

    patterns: list[tuple[int, ...]]
    index_a: np.ndarray             # row of pattern_a in ``patterns``, per branch
    index_b: np.ndarray
    probability: np.ndarray
    success: np.ndarray
    rails: np.ndarray               # corrected c_xy of each joint success, (successes, 2, 2)

    def __len__(self) -> int:
        return len(self.probability)


def cz_via_cs(qubit_a, qubit_b, n: int) -> CzBranches:
    """Probabilistic conditional-phase gate on two dual-rail qubits, each
    given as its rail amplitudes (alpha, beta).

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
    inputs = np.multiply.outer(_rails(qubit_a), _rails(qubit_b))
    patterns, t = transfer_tensor(n)
    d = np.einsum("ij,axi,byj->abxy", cs_amplitudes(n), t, t, optimize=True)
    amps = d * inputs
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


def cz_ideal(qubit_a, qubit_b) -> np.ndarray:
    """The conditional-phase image of two rail pairs, as c_xy amplitudes."""
    return np.multiply.outer(_rails(qubit_a), _rails(qubit_b)) * [[1, 1], [1, -1]]


def teleport_success_probability(n: int, alpha: complex, beta: complex) -> float:
    """Total success probability of one teleportation of alpha|0> + beta|1>
    through the standalone resource sum_i |t_n^i> / sqrt(n+1).

    A success pattern p with k photons leaves x = 0 (from i = k) and x = 1
    (from i = k-1) on orthogonal leftover modes, so it has probability
    (|alpha T[p, 0, k]|^2 + |beta T[p, 1, k-1]|^2) / (n+1).
    """
    alpha, beta = _rails((alpha, beta))
    patterns, t = transfer_tensor(n)
    k = np.array([sum(p) for p in patterns])
    rows = np.flatnonzero((0 < k) & (k < n + 1))
    weights = (np.abs(alpha * t[rows, 0, k[rows]]) ** 2
               + np.abs(beta * t[rows, 1, k[rows] - 1]) ** 2)
    return math.fsum(weights) / (n + 1)


def cz_success_report(n: int, qubit_a=_PLUS, qubit_b=_PLUS) -> dict:
    """Verification report for the conditional-phase gate on two rail pairs."""
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
