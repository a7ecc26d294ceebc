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
amplitude factorizes over T and the s_ij; photon-number conservation leaves
one entry of T per pattern and rail value, so the gate is checked per
detection pattern and per 2x2 block of the s_ij, never per pattern pair.
The gate takes each dual-rail qubit as its two rail amplitudes (alpha,
beta), the form it computes with.  Desk scale only: orders up to 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import InputError, cz_success

_AMP_EPS = 1e-14
_PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))
_ORDERS = range(1, 6)


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
                        key = added[:i] + (added[i] + 1,) + added[i + 1:]
                        nxt[key] = nxt.get(key, 0j) + coef * mat[i, j]
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


def _pattern_amplitudes(n: int):
    """The detection patterns, their photon totals k = |p|, and per pattern
    and rail value x the one entry a_x(p) = T[p, x, k - x] of its row of T,
    which must be exactly 0 everywhere else."""
    patterns, t = transfer_tensor(n)
    k = np.array([sum(p) for p in patterns])
    if t[np.arange(n + 1) != (k[:, None] - (0, 1))[:, :, None]].any():
        raise FockError("the transfer tensor has amplitude off i = |p| - x")
    return patterns, k, t.sum(axis=2)


@dataclass
class CzBranches:
    """The outcomes of one gate attempt, held per detection pattern and per
    2x2 block of |CS_n>.

    Branch (pa, pb) pairs a live pattern on each side, in lexicographic
    order, so ``len()``, the branch count, is the product of the live
    counts.  A branch is a joint success when both patterns are teleported;
    every joint success with totals (ka, kb) leaves the rails
    ``rails[ka-1, kb-1]`` up to a global phase.
    """

    patterns: list[tuple[int, ...]]
    totals: np.ndarray              # photons detected, per pattern
    live_a: np.ndarray              # the pattern has nonzero probability on side a
    live_b: np.ndarray
    success_probability: float
    rails: np.ndarray               # corrected, normalized c_xy per block, (n, n, 2, 2)

    def __len__(self) -> int:
        return int(self.live_a.sum()) * int(self.live_b.sum())

    def success_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """The totals of the live teleported patterns of each side."""
        teleported = (0 < self.totals) & (self.totals <= len(self.rails))
        return (self.totals[self.live_a & teleported],
                self.totals[self.live_b & teleported])


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
    different (x, y) are orthogonal.  Photon number is conserved, so row p
    of T holds one entry per x, a_x(p) = T[p, x, k - x] with k = |p|, and
    d[pa, pb, x, y] = a_x(pa) s[ka - x, kb - y] a_y(pb).  The gate is
    therefore checked per pattern and per 2x2 block
    B(ka, kb)[x, y] = s[ka - x, kb - y], never per pattern pair:

    - every entry of T off i = |p| - x is exactly 0;
    - each teleported pattern has |a_0| = |a_1|, so its correction a_0/a_1
      is a phase;
    - each block's entries have equal magnitude, so its corrections
      B00/B10 and B00/B01 are phases, and its residual B11 B00 / (B10 B01)
      is -1: the conditional sign, read from s itself.

    A branch's correction is the product of its patterns' and its block's
    phases; the pattern phases cancel from the corrected rails, which are
    then alpha_x beta_y B[x, y] times the block corrections, up to a global
    phase.  Every s_ij lies in some block, so the block checks leave no s_ij
    at 0, and a pattern pair has nonzero probability, and is a branch,
    exactly when each pattern has nonzero probability on its own side.
    """
    if n not in _ORDERS:
        raise OrderCapError(
            f"desk-scale cap: order must be 1 to {_ORDERS[-1]}, got {n} (a report lists one "
            "fidelity per joint success: 139,876 at order 5, 2,941,225 at order 6)")
    rails_a, rails_b = _rails(qubit_a), _rails(qubit_b)
    patterns, k, amp = _pattern_amplitudes(n)
    teleported = (0 < k) & (k < n + 1)
    mags = np.abs(amp[teleported])
    if np.abs(mags[:, 0] - mags[:, 1]).max(initial=0.0) > 1e-10:
        raise FockError("success branch amplitudes are unbalanced")

    s = cs_amplitudes(n)
    rows = np.arange(1, n + 1)[:, None] - (0, 1)       # rows[k-1, x] = k - x
    blocks = s[rows[:, None, :, None], rows[None, :, None, :]]
    mags = np.abs(blocks).reshape(n, n, 4)
    if (mags.max(axis=2) - mags.min(axis=2)).max() > 1e-10:
        raise FockError("the |CS_n> amplitudes of a 2x2 block are unbalanced")
    phase_a = blocks[..., 0, 0] / blocks[..., 1, 0]
    phase_b = blocks[..., 0, 0] / blocks[..., 0, 1]
    resid = blocks[..., 1, 1] * phase_a * phase_b / blocks[..., 0, 0]
    miss = ~(np.abs(resid + 1.0) <= 1e-9)
    if miss.any():
        raise FockError(f"branch lacks the conditional sign: residual {resid[miss][0]}")

    def per_total(weight):
        """The pattern weights summed per total k = 1..n, (n, 2)."""
        return np.stack([np.bincount(k, w, minlength=n + 2)[1:n + 1] for w in weight.T],
                        axis=1)

    # different x (and y) leave orthogonal leftover modes, so weights add
    weight_a = np.abs(rails_a * amp) ** 2
    weight_b = np.abs(rails_b * amp) ** 2
    success = math.fsum(np.einsum("ax,abxy,by->abxy", per_total(weight_a),
                                  np.abs(blocks) ** 2, per_total(weight_b)).ravel())
    # corrected c_xy = alpha_x beta_y B[x, y] phase_a^x phase_b^y, normalized
    fix_a = np.stack([np.ones_like(phase_a), phase_a], axis=-1)[..., :, None]
    fix_b = np.stack([np.ones_like(phase_b), phase_b], axis=-1)[..., None, :]
    rails = np.multiply.outer(rails_a, rails_b) * blocks * fix_a * fix_b
    rails /= np.sqrt((np.abs(rails) ** 2).sum(axis=(2, 3)))[..., None, None]
    return CzBranches(patterns, k, weight_a.sum(axis=1) > 0, weight_b.sum(axis=1) > 0,
                      success, rails)


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
    _, k, amp = _pattern_amplitudes(n)
    weights = np.abs(_rails((alpha, beta)) * amp[(0 < k) & (k < n + 1)]) ** 2
    return math.fsum(weights.sum(axis=1)) / (n + 1)


def cz_success_report(n: int, qubit_a=_PLUS, qubit_b=_PLUS) -> dict:
    """Verification report for the conditional-phase gate on two rail pairs.

    A joint success's fidelity depends only on its block, so the minimum is
    taken over the n^2 blocks, and the per-branch list is the per-block
    fidelity broadcast over the success totals.
    """
    branches = cz_via_cs(qubit_a, qubit_b, n)
    ideal = cz_ideal(qubit_a, qubit_b)
    got = branches.rails
    norms = (np.abs(got) ** 2).sum(axis=(2, 3)) * np.vdot(ideal, ideal).real
    block = np.abs(np.einsum("abxy,xy->ab", got, ideal.conj())) ** 2 / norms
    ka, kb = branches.success_totals()
    fidelities = block[ka[:, None] - 1, kb - 1].ravel()
    return {
        "order": n,
        "branch_count": len(branches),
        "success_branches": len(fidelities),
        "success_probability": branches.success_probability,
        "expected_success_probability": float(cz_success(n)),
        "branch_fidelities": fidelities.tolist(),
        "min_success_fidelity": float(block.min()),
    }
