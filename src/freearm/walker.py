"""Seeded Monte Carlo for chain construction, weaving and the cluster variant.

Chain construction is a one-dimensional biased random walk.  Every walk step
consumes one "prepared unit": an off-line preparation in which the two
teleportations on the new two-photon unit are retried until both succeed
(each attempt costs one two-photon unit and one or two ancilla states).  The
on-chain half of the step then succeeds with probability (n/(n+1))^2; on
failure a fair coin decides whether the last linked photon was removed
(backward) or only the prepared unit was lost (neutral).

Randomness comes from substreams (seed, trial, stream), ``PCG64DXSM(seed)``
jumped 4 * trial + stream times (numpy's non-overlapping parallel streams), one
double per event, compared with cumulative bounds from the exact rationals
(:func:`_step_bounds`, :func:`_prep_bounds`), so a trial's outcome is fixed by
its streams alone, however trials are grouped.
:func:`run_trials` draws a row of classified uniforms per trial of a block,
sized from the expected draws plus a few standard deviations, and finds every
trial's first hits from per-tile counts of its codes, scanning step by step
only the few tiles that can hold a hit; trials that need more rows continue
in later rounds.  Blocks run one after another on the calling thread.
:func:`simulate_step` and :func:`simulate_prep` read the same streams one event
at a time.  The weave and cluster batches read ``substream(seed, 0)`` in order,
one reader buffer of ``_CHUNK_UNIFORMS`` doubles at a time, keeping per-value
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import analytics
from .analytics import WeaveModel

_STREAM_STEP = 0
_STREAM_PREP = 1
_MARGIN = 4.0  # standard deviations of headroom in each sized draw
_BLOCK_UNIFORMS = 1 << 20  # uniforms in flight, held as 1-byte codes
_CHUNK_UNIFORMS = 1 << 15  # doubles the reader holds at once: 256 kB
_ROUND_LIMIT = 2 ** 16 - 1  # weave rounds stop short: after round r an arm counter is <= r + 1
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835  # words in one PCG64DXSM.jumped: (phi - 1) * 2^128


def substream(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, trial, stream): ``PCG64DXSM(seed)``
    jumped 4 * trial + stream times."""
    return np.random.Generator(np.random.PCG64DXSM(seed).jumped(trial * 4 + stream))


class StepOutcome(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class WalkParams:
    n: int
    target_links: int
    trials: int
    seed: int
    max_steps: int = 1_000_000
    warmup_links: int = 50

    def __post_init__(self):
        analytics._check_order(self.n)
        for name, value in vars(self).items():  # every field; a bool is an int subclass
            if not isinstance(value, int) or isinstance(value, bool):
                raise analytics.InputError(f"{name} must be an int, got {value!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise analytics.InputError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if self.target_links < 1 or self.trials < 1:
            raise analytics.InputError("target_links and trials must be >= 1")
        if self.warmup_links < 0:
            raise analytics.InputError("warmup_links must be >= 0")
        # fewer steps than links to build would cap every trial by construction
        if self.max_steps < self.warmup_links + self.target_links:
            raise analytics.InputError(
                "max_steps must be >= warmup_links + target_links, got "
                f"{self.max_steps} < {self.warmup_links} + {self.target_links}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float


@dataclass
class TrialResult:
    """Raw per-trial counters; measured_* fields exclude the warmup segment."""

    steps: int
    forward: int
    backward: int
    units: int
    cs: int
    measured_steps: int
    measured_units: int
    measured_cs: int
    capped: bool


@dataclass
class WalkStats:
    capped_trials: int
    attempts_per_net_link: Estimate
    units_per_link: Estimate
    cs_per_link: Estimate
    drift: Estimate


def mean_stderr(values) -> Estimate:
    """Sample mean with sample-corrected (ddof=1) standard error; 0 for a single value."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty list")
    if arr.size == 1:
        return Estimate(float(arr[0]), 0.0)
    return Estimate(float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size)))


def count_mean_stderr(counts) -> Estimate:
    """:func:`mean_stderr` of integer samples given as per-value counts
    (``counts[v]`` samples equal v), each rounded once from its exact rational."""
    n, s1, s2 = (sum(v ** k * int(c) for v, c in enumerate(counts)) for k in range(3))
    if n == 0:
        raise ValueError("cannot aggregate an empty list")
    var_of_mean = Fraction(n * s2 - s1 * s1, n * n * max(n - 1, 1))  # 0 for one sample
    return Estimate(float(Fraction(s1, n)), math.sqrt(var_of_mean))


def simulate_prep(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Off-line preparation of one unit: retry until both teleportations succeed.

    Each attempt burns one two-photon unit plus one ancilla if the first
    teleportation fails, two otherwise.  Returns (attempts, ancillas).
    """
    bounds = _prep_bounds(n)
    attempts = cs = 0
    while True:
        u = rng.random()
        code = sum(u < bound for bound in bounds)
        attempts += 1
        cs += 1 if code == 0 else 2
        if code == 2:
            return attempts, cs


def simulate_step(n: int, rng: np.random.Generator) -> StepOutcome:
    """On-chain half of a walk step (a prepared unit is consumed beforehand).

    The two teleportations on the last chain photon succeed independently with
    probability n/(n+1); on failure a fair coin decides backward vs neutral,
    so P(backward) = (1 - p)/2 with p = (n/(n+1))^2.  No ancillas are charged
    here: they were all paid for at preparation time.
    """
    u = rng.random()
    code = sum(u < bound for bound in _step_bounds(n))
    return (StepOutcome.NEUTRAL, StepOutcome.BACKWARD, StepOutcome.FORWARD)[code]


def _step_bounds(n: int) -> tuple[float, float]:
    """A walk step's bounds: forward below p = (n/(n+1))^2, backward below (1 + p)/2."""
    p = analytics.cz_success(n)
    return float(p), float((1 + p) / 2)


def _prep_bounds(n: int) -> tuple[float, float]:
    """A preparation attempt's bounds: it succeeds below p = s^2, and its first
    teleportation succeeds below s = n/(n+1)."""
    return float(analytics.cz_success(n)), float(analytics.ftel_success(n))


class _Streams:
    """Reads the substreams of one seed through one live PCG64DXSM, moved to
    each word it reads by one ``advance`` from where it stands."""

    def __init__(self, seed: int):
        self._bits = np.random.PCG64DXSM(seed)
        self._gen = np.random.Generator(self._bits)
        self._at = 0  # words the generator stands past the seed's state, mod 2^128

    def read(self, trial: int, stream: int, word: int, out: np.ndarray) -> None:
        """Fills ``out`` with substream (seed, trial, stream)'s doubles from its ``word``-th."""
        at = ((trial * 4 + stream) * _JUMP + word) % 2 ** 128
        if at != self._at:
            self._bits.advance((at - self._at) % 2 ** 128)
        self._gen.random(out=out)
        self._at = (at + out.size) % 2 ** 128

    def draw(self, trials, stream: int, drawn, rows, bounds) -> np.ndarray:
        """Per uniform, the number of ``bounds`` it lies below, as int8: for each
        i in turn, ``rows[i]`` doubles of substream (seed, trials[i], stream)
        after its first ``drawn[i]``, in one flat array.  The doubles pass
        through a buffer of ``_CHUNK_UNIFORMS``, classified a buffer at a time."""
        out = np.empty(sum(rows), np.int8)
        buf, below = np.empty(min(out.size, _CHUNK_UNIFORMS)), np.empty(_CHUNK_UNIFORMS, bool)
        pending, owed = iter(zip(trials, drawn, rows)), 0  # doubles the current trial owes
        for first in range(0, out.size, _CHUNK_UNIFORMS):
            u = buf[:out.size - first]
            filled = 0
            while filled < u.size:
                if not owed:
                    trial, word, owed = next(pending)
                    continue
                take = min(owed, u.size - filled)
                self.read(trial, stream, word, u[filled:filled + take])
                filled, word, owed = filled + take, word + take, owed - take
            codes = out[first:first + u.size]
            np.less(u, bounds[0], out=codes.view(bool))
            for bound in bounds[1:]:
                codes += np.less(u, bound, out=below[:u.size]).view(np.int8)
        return out


def _walk_rows(n: int, start: int, goal: int) -> int:
    """Walk steps that climb from length ``start`` to ``goal`` on average, plus
    ``_MARGIN`` standard deviations."""
    p, below_back = _step_bounds(n)
    b = below_back - p
    d = p - b
    if d <= 0:
        # order 1: sum the exact moments of the steps from each length k to
        # k + 1 (mean E_k = -8 + 12 (3/2)^k) up to 64 levels, more than a round holds
        mean = var = e = m = 0.0
        for k in range(min(goal, start + 64)):
            prev = e
            e = (1 + b * prev) / p
            m = (1 + 2 * (b * prev + (1 - p) * e) + b * (m + 2 * prev * e)) / p
            if k >= start:
                mean, var = mean + e, var + m - e * e
        return math.ceil(mean + _MARGIN * math.sqrt(var))
    links = goal - start
    return math.ceil(links / d + _MARGIN * math.sqrt(links * (p + b - d * d) / d ** 3))


def _prep_rows(n: int, units):
    """Preparation attempts that yield ``units`` prepared units on average,
    plus ``_MARGIN`` standard deviations."""
    q = _prep_bounds(n)[0]
    return np.ceil(units / q + _MARGIN * np.sqrt(units * (1 - q)) / q).astype(np.int64)


def _tile_width(rows: int) -> int:
    """Codes per tile for rows of ``rows`` codes: the power of two nearest
    sqrt(rows), from 32 to 1024."""
    return 1 << min(10, max(5, round(math.log2(rows) / 2)))


def _tiled(codes: np.ndarray, width: int):
    """``codes`` (0, 1 or 2 each) padded with 0s to whole tiles of ``width``
    along the last axis, shaped (..., tiles, width), and each tile's count
    of 2s (its halved codes' sum) and of 1s (its sum less twice that)."""
    if codes.shape[-1] % width:
        pad = [(0, 0)] * (codes.ndim - 1) + [(0, -codes.shape[-1] % width)]
        codes = np.pad(codes, pad)
    tiles = codes.reshape(*codes.shape[:-1], -1, width)
    raw = tiles.view(np.uint8)
    twos = np.add.reduce(raw >> 1, axis=-1, dtype=np.uint16).astype(np.int64)
    return tiles, twos, np.add.reduce(raw, axis=-1, dtype=np.uint16) - 2 * twos


def _positions(start: np.ndarray, tiles: np.ndarray) -> np.ndarray:
    """Unfloored positions after each walk code of each row of ``tiles``, from ``start``."""
    return np.cumsum((tiles >> 1) - (tiles & 1), axis=1, dtype=np.int64) + start[:, None]


def _passage(tiles, begin, end, fwd, level) -> np.ndarray:
    """Per row of ``tiles``, the column where the length first reaches
    ``level[row]``, -1 if it does not.  ``begin`` and ``end`` hold the
    lengths at each tile's ends and ``fwd`` its forward steps; only a tile
    that could climb to the level, and is not past the first tile to end
    there, is scanned."""
    k, count, width = tiles.shape
    reach = end >= level[:, None]
    last = np.where(reach.any(axis=1), reach.argmax(axis=1), count - 1)
    r, t = np.nonzero((begin + fwd >= level[:, None]) & (np.arange(count) <= last[:, None]))
    s = _positions(begin[r, t], tiles[r, t])
    hit = s - np.minimum(np.minimum.accumulate(s, axis=1), 0) >= level[r, None]
    j = hit.argmax(axis=1)
    r, t, j = (a[hit[np.arange(r.size), j]] for a in (r, t, j))
    first = np.diff(r, prepend=-1) > 0  # nonzero lists each row's tiles in order
    col = np.full(k, -1)
    col[r[first]] = t[first] * width + j[first]
    return col


def _walk_round(codes: np.ndarray, start: np.ndarray, warm: np.ndarray, goal: int):
    """One round of walk ``codes`` (trials, steps) from lengths ``start``: per
    trial the columns where the length first reaches ``warm[trial]`` and
    ``goal`` (-1: nowhere), and the forward and backward steps and the length
    up to the goal or else to the row's end.

    Per tile, its forward and backward steps give the unfloored position S at
    its end.  The floor moves only in a tile that may go below 0 and below
    every earlier tile end; only those are scanned for their lowest S."""
    width = _tile_width(codes.shape[1])
    tiles, fwd, bwd = _tiled(codes, width)
    end = np.cumsum(fwd - bwd, axis=1) + start[:, None]
    begin = end - fwd + bwd
    low = np.minimum(np.minimum.accumulate(end, axis=1), 0)
    r, t = np.nonzero(begin - bwd < np.c_[np.zeros_like(start), low[:, :-1]])
    lowest = end.copy()
    lowest[r, t] = _positions(begin[r, t], tiles[r, t]).min(axis=1)
    end -= np.minimum(np.minimum.accumulate(lowest, axis=1), 0)  # the lengths
    begin = np.c_[start, end[:, :-1]]
    warm_col = _passage(tiles, begin, end, fwd, warm)
    col = _passage(tiles, begin, end, fwd, np.full(start.size, goal))
    # counts to the tile end, less those in the tile past the goal
    t, j = np.divmod(np.where(col < 0, tiles.shape[1] * width - 1, col), width)
    rows = np.arange(start.size)
    past = tiles[rows, t] * (np.arange(width) > j[:, None])
    forward = np.cumsum(fwd, axis=1)[rows, t] - (past == 2).sum(axis=1)
    backward = np.cumsum(bwd, axis=1)[rows, t] - (past == 1).sum(axis=1)
    return warm_col, col, forward, backward, np.where(col < 0, end[:, -1], goal)


def _walk(params: WalkParams, streams: _Streams, trials: np.ndarray):
    """Walk phase of a block: per trial the steps, forward and backward steps,
    steps to the warmup length, and whether it was capped.

    Every trial still walking has drawn the same number of rows."""
    bounds = _step_bounds(params.n)
    goal = params.warmup_links + params.target_links
    steps, forward, backward, length = (np.zeros(trials.size, np.int64) for _ in range(4))
    warm_steps = np.full(trials.size, -1 if params.warmup_links else 0)
    active, drawn = np.arange(trials.size), 0
    while active.size and drawn < params.max_steps:
        k = active.size
        rows = min(_walk_rows(params.n, int(length[active].min()), goal),
                   params.max_steps - drawn, _BLOCK_UNIFORMS // k)
        codes = streams.draw(trials[active].tolist(), _STREAM_STEP, [drawn] * k, [rows] * k,
                             bounds).reshape(k, rows)
        # a trial past its warmup length waits for a level it never reaches
        warm = np.where(warm_steps[active] < 0, params.warmup_links, np.iinfo(np.int64).max)
        warm_col, col, fwd, bwd, length[active] = _walk_round(codes, length[active], warm, goal)
        hit = warm_col >= 0
        warm_steps[active[hit]] = drawn + warm_col[hit] + 1
        done = col >= 0
        steps[active] += np.where(done, col + 1, rows)
        forward[active] += fwd
        backward[active] += bwd
        drawn += rows
        active = active[~done]
    capped = np.isin(np.arange(trials.size), active)
    return steps, forward, backward, np.where(warm_steps < 0, steps, warm_steps), capped


def _count_before(tiles, win_at, half_at, at):
    """Successes and first-only attempts before each flat position ``at`` of
    preparation ``tiles``, of which ``win_at`` and ``half_at`` count those
    before each tile and the end."""
    width = tiles.shape[1]
    t = np.minimum(at // width, tiles.shape[0] - 1)
    before = tiles[t] * (np.arange(width) < (at - t * width)[:, None])
    return win_at[t] + (before == 2).sum(axis=1), half_at[t] + (before == 1).sum(axis=1)


def _nth_win(tiles, win_at, nth):
    """Flat positions of the ``nth`` successes (from 1) of preparation ``tiles``."""
    t = np.searchsorted(win_at, nth) - 1  # win_at[t] < nth <= win_at[t + 1]
    seen = np.cumsum(tiles[t] == 2, axis=1)
    return t * tiles.shape[1] + np.argmax(seen >= (nth - win_at[t])[:, None], axis=1)


def _prep(params: WalkParams, streams: _Streams, trials: np.ndarray, marks: np.ndarray):
    """Preparation phase of a block: the (units, cs) spent by the ``marks[j]``-th
    prepared unit of each trial, for each row j of ``marks``.  The last row
    holds the largest marks; a mark of 0 costs nothing."""
    bounds = _prep_bounds(params.n)
    units, cs = np.zeros(marks.shape, np.int64), np.zeros(marks.shape, np.int64)
    drawn, spent, seen = (np.zeros(trials.size, np.int64) for _ in range(3))
    active = np.arange(trials.size)
    while active.size:
        rows = np.minimum(_prep_rows(params.n, marks[-1, active] - seen[active]),
                          _BLOCK_UNIFORMS // active.size)
        codes = streams.draw(trials[active].tolist(), _STREAM_PREP, drawn[active].tolist(),
                             rows.tolist(), bounds)
        # an attempt whose first teleportation succeeds costs 2 ancillas, any other 1;
        # count successes and first-only successes per tile of the flat codes
        tiles, wins, halves = _tiled(codes, _tile_width(codes.size // active.size))
        win_at, half_at = np.r_[0, np.cumsum(wins)], np.r_[0, np.cumsum(halves)]
        start = np.r_[0, np.cumsum(rows)]
        row_wins, row_halves = _count_before(tiles, win_at, half_at, start)
        for mark, mark_units, mark_cs in zip(marks, units, cs):
            want = mark[active] - seen[active]
            hit = (want > 0) & (want <= np.diff(row_wins))
            at = _nth_win(tiles, win_at, row_wins[:-1][hit] + want[hit])
            tried = at - start[:-1][hit] + 1
            i = active[hit]
            mark_units[i] = drawn[i] + tried
            # one more ancilla per success up to the want-th and per first-only attempt
            mark_cs[i] = (spent[i] + tried + want[hit]
                          + _count_before(tiles, win_at, half_at, at)[1] - row_halves[:-1][hit])
        drawn[active] += rows
        spent[active] += rows + np.diff(row_wins) + np.diff(row_halves)
        seen[active] += np.diff(row_wins)
        active = active[seen[active] < marks[-1, active]]
    return units, cs


def _run_block(params: WalkParams, trials: np.ndarray) -> list[TrialResult]:
    streams = _Streams(params.seed)
    steps, fwd, bwd, warm_steps, capped = _walk(params, streams, trials)
    (warm_units, units), (warm_cs, cs) = _prep(params, streams, trials,
                                               np.stack([warm_steps, steps]))
    columns = (steps, fwd, bwd, units, cs, steps - warm_steps, units - warm_units,
               cs - warm_cs, capped)
    return [TrialResult(*row) for row in zip(*(c.tolist() for c in columns))]


def aggregate(trials: list[TrialResult], params: WalkParams) -> WalkStats:
    """Means and sample-corrected standard errors over a homogeneous trial list.

    Per-link rates are measured after the chain first reaches ``warmup_links``,
    excluding the reflecting-boundary transient so they estimate the long-run
    rates the closed forms describe.
    """
    done = [t for t in trials if not t.capped]
    rates = [mean_stderr([getattr(t, field) / params.target_links for t in done]) if done
             else Estimate(math.nan, math.nan)
             for field in ("measured_steps", "measured_units", "measured_cs")]
    drift = mean_stderr([(t.forward - t.backward) / t.steps for t in trials if t.steps])
    return WalkStats(len(trials) - len(done), *rates, drift)


def run_trials(params: WalkParams) -> list[TrialResult]:
    """All trial results in trial order, computed a block of trials at a time
    on the calling thread.  Each trial draws from its own substreams, so the
    list does not depend on the block size."""
    rows = min(_walk_rows(params.n, 0, params.warmup_links + params.target_links),
               params.max_steps)
    per_trial = max(rows, int(_prep_rows(params.n, rows)))
    size = max(1, _BLOCK_UNIFORMS // per_trial)
    return [result for first in range(0, params.trials, size)
            for result in _run_block(params, np.arange(first, min(first + size, params.trials)))]


@dataclass
class WeaveStats:
    count: int
    cs_mean: Estimate
    arms_per_side: Estimate


def _batch_rows(rng: np.random.Generator, rows: int, width: int, bound: float):
    """Reads ``rows`` rows of ``width`` doubles from ``rng`` a reader buffer at a time;
    yields each slice's first row and its rows' doubles < ``bound``."""
    step = max(1, _CHUNK_UNIFORMS // width)
    buf = np.empty(min(rows, step) * width)
    for first in range(0, rows, step):
        u = buf[:min(step, rows - first) * width]
        rng.random(out=u)
        yield first, (u < bound).reshape(-1, width)


def weave_batch(m: int, model: WeaveModel | str, count: int, seed: int) -> WeaveStats:
    """Vectorized lockstep batch of independent weaves under ``model`` (a :class:`WeaveModel`
    or its value), drawn round by round, in weave order, from ``substream(seed, 0)``."""
    s = float(analytics.ftel_success(m, name="m"))
    rng = substream(seed, 0)
    arms = np.ones((count, 2), np.uint16)
    if WeaveModel(model) is WeaveModel.FULL_CZ_RETRY:
        # the weaves still retrying are arms[:k], in weave order; each finished
        # weave counts its rounds in rounds[r] and its two arms in arm_hist
        rounds, arm_hist, k = [0], np.zeros(1, np.int64), count
        while k:
            if len(rounds) >= _ROUND_LIMIT:
                raise OverflowError(f"weave round {len(rounds)} would wrap the arm counters")
            arm_hist, kept = np.r_[arm_hist, 0], 0
            for first, ok in _batch_rows(rng, k, 2, s):
                held = arms[first:first + len(ok)]
                held += ~ok
                done = ok[:, 0] & ok[:, 1]
                arm_hist += np.bincount(held.compress(done, 0).ravel(), minlength=arm_hist.size)
                retry = held.compress(~done, 0)
                arms[kept:kept + len(retry)] = retry
                kept += len(retry)
            rounds.append(k - kept)
            k = kept
        return WeaveStats(count, count_mean_stderr(rounds), count_mean_stderr(arm_hist))
    index = np.int32 if count <= 2 ** 31 else np.int64
    for side in range(2):
        # round 1 covers every weave; later rounds index the weaves still retrying
        r, k = 1, count
        while k:
            if r >= _ROUND_LIMIT:
                raise OverflowError(f"weave round {r} would wrap the arm counters")
            active = np.concatenate([
                np.flatnonzero(~ok[:, 0]).astype(index) + first if r == 1
                else active[first:first + len(ok)][~ok[:, 0]]
                for first, ok in _batch_rows(rng, k, 1, s)])
            arms[active, side] += 1
            r, k = r + 1, active.size
    top = int(arms.max(initial=0)) + 1
    pairs = np.split(arms, range(_CHUNK_UNIFORMS, count, _CHUNK_UNIFORMS))
    cs_hist = sum(np.bincount(np.maximum(p[:, 0], p[:, 1]), minlength=top) for p in pairs)
    arm_hist = sum(np.bincount(p.ravel(), minlength=top) for p in pairs)
    return WeaveStats(count, count_mean_stderr(cs_hist), count_mean_stderr(arm_hist))


@dataclass
class ClusterStats:
    count: int
    units_per_net_unit: float
    cs_per_net_unit: float


def cluster_batch(n: int, count: int, seed: int) -> ClusterStats:
    """Long-run averages of the cluster attach model over ``count`` attempts.

    An attempt adds a four-photon unit with one order-n gate and, on failure,
    up to two repairs on successively earlier photons of the last unit; each
    gate attempt costs one ancilla, and three failures destroy the last unit
    (net -1).  This micro-model is an assumption: its long-run averages are
    compared to, not asserted against, ``cluster_resources_per_unit``.
    """
    p = float(analytics.cz_success(n))
    cs = net = 0
    for _, tries in _batch_rows(substream(seed, 0), count, 3, p):
        # an attempt costs one ancilla per try up to its first success: three, less one if
        # won at the first try and one if within two (a per-row any or argmax is 20x slower)
        two = tries[:, 0] | tries[:, 1]
        cs += 3 * len(tries) - int(np.count_nonzero(tries[:, 0])) - int(np.count_nonzero(two))
        net += 2 * int(np.count_nonzero(two | tries[:, 2])) - len(tries)
    if net <= 0:
        return ClusterStats(count, math.inf, math.inf)
    return ClusterStats(count, count / net, cs / net)
