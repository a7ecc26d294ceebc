"""Seeded Monte Carlo for chain construction, weaving and the cluster variant.

Chain construction is a one-dimensional biased random walk.  Every walk step
consumes one "prepared unit": an off-line preparation in which the two
teleportations on the new two-photon unit are retried until both succeed
(each attempt costs one two-photon unit and one or two ancilla states).  The
on-chain half of the step then succeeds with probability (n/(n+1))^2; on
failure a fair coin decides whether the last linked photon was removed
(backward) or only the prepared unit was lost (neutral).

Randomness comes from counter-based Philox substreams keyed by (seed, trial,
stream), with fixed-width draws (3 uniforms per walk step, 2 per preparation
attempt), so a trial's outcome is fixed by its streams alone, however trials
are grouped.  :func:`run_trials` fills one (trials, rows, width) array per
block of trials, sized from the expected draws plus a few standard
deviations, and finds every trial's first hits in one pass along the rows;
trials that need more rows continue in later rounds.  :func:`simulate_step`
and :func:`simulate_prep` read the same streams one event at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analytics

_STREAM_STEP = 0
_STREAM_PREP = 1
_MARGIN = 4.0  # standard deviations of headroom in each sized draw
_DIVERGENT_ROWS = 4096  # walk rows per round when the drift is not positive
_BLOCK_UNIFORMS = 1 << 21  # uniforms per block round: 16 MB of doubles


def substream(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Independent Philox-backed generator for (seed, trial, stream)."""
    key = np.array([np.uint64(seed), np.uint64(trial * 4 + stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    threads: int = 1  # accepted for compatibility; trials run in blocks on one thread

    def __post_init__(self):
        if self.n < 1:
            raise analytics.OrderOutOfRangeError("n must be >= 1")
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
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty list")
    if arr.size == 1:
        return Estimate(float(arr[0]), 0.0)
    return Estimate(float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size)))


def simulate_prep(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Off-line preparation of one unit: retry until both teleportations succeed.

    Each attempt burns one two-photon unit plus one ancilla if the first
    teleportation fails, two otherwise.  Returns (attempts, ancillas).
    """
    s = n / (n + 1)
    attempts = 0
    cs = 0
    while True:
        u = rng.random(2)
        attempts += 1
        first_ok = u[0] < s
        cs += 2 if first_ok else 1
        if first_ok and u[1] < s:
            return attempts, cs


def simulate_step(n: int, rng: np.random.Generator) -> StepOutcome:
    """On-chain half of a walk step (a prepared unit is consumed beforehand).

    The two teleportations on the last chain photon succeed independently with
    probability n/(n+1); on failure a fair coin decides backward vs neutral,
    so P(backward) = (1 - p)/2 with p = (n/(n+1))^2.  No ancillas are charged
    here: they were all paid for at preparation time.
    """
    forward, backward = _classify(rng.random(3), n / (n + 1))
    if forward:
        return StepOutcome.FORWARD
    return StepOutcome.BACKWARD if backward else StepOutcome.NEUTRAL


def _floored_lengths(start, deltas: np.ndarray) -> np.ndarray:
    """Walk positions with a reflecting floor at 0, vectorized along the last axis.

    For L_k = max(0, L_{k-1} + d_k) with L_0 = start, the closed form is
    L_k = S_k - min(0, min_{j<=k} S_j) with S_k = start + cumsum(d).
    ``start`` is a scalar or holds one start per row of ``deltas``.
    """
    lengths = np.cumsum(deltas, axis=-1, dtype=np.int64)
    lengths += np.expand_dims(start, -1)
    floor = np.minimum.accumulate(lengths, axis=-1)
    np.minimum(floor, 0, out=floor)
    lengths -= floor
    return lengths


def _classify(u: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward masks of walk steps drawn as 3 uniforms on the last axis."""
    forward = (u[..., 0] < s) & (u[..., 1] < s)
    return forward, ~forward & (u[..., 2] < 0.5)


class _Streams:
    """Reads substreams by re-keying one live Philox: microseconds, where
    constructing a ``Philox`` also seeds a ``SeedSequence`` from OS entropy."""

    def __init__(self, seed: int):
        self._seed = seed
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)
        self._state = self._bits.state

    def draw(self, trials, stream: int, drawn, rows, width: int) -> np.ndarray:
        """Row i: ``rows[i]`` draws of ``width`` doubles from substream (seed,
        trials[i], stream) after its first ``drawn[i]`` draws, padded with 1.0."""
        out = np.empty((len(trials), max(rows), width))
        state = self._state
        for row, trial, start, k in zip(out, trials, drawn, rows):
            state["state"]["key"] = np.array([self._seed, trial * 4 + stream], dtype=np.uint64)
            # Philox advances its counter before it computes each block of 4 words
            state["state"]["counter"] = np.array([width * start // 4, 0, 0, 0], dtype=np.uint64)
            state["buffer_pos"] = 4
            self._bits.state = state
            self._bits.random_raw(width * start % 4)
            self._gen.random(out=row[:k])
            row[k:] = 1.0
        return out


def _walk_rows(n: int, links: int) -> int:
    """Walk steps that climb ``links`` links on average, plus ``_MARGIN``
    standard deviations; a fixed chunk when the drift is not positive."""
    p = (n / (n + 1)) ** 2
    b = (1 - p) / 2
    d = p - b
    if d <= 0:
        return _DIVERGENT_ROWS
    return math.ceil(links / d + _MARGIN * math.sqrt(links * (p + b - d * d) / d ** 3))


def _prep_rows(n: int, units):
    """Preparation attempts that yield ``units`` prepared units on average,
    plus ``_MARGIN`` standard deviations."""
    q = (n / (n + 1)) ** 2
    return np.ceil(units / q + _MARGIN * np.sqrt(units * (1 - q)) / q).astype(np.int64)


def _first_at_least(values: np.ndarray, target) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``values``: the first column that reaches ``target``, and whether one does."""
    reach = values >= target
    col = reach.argmax(axis=1)
    return col, reach[np.arange(col.size), col]


def _walk(params: WalkParams, streams: _Streams, trials: np.ndarray):
    """Walk phase of a block: per trial the steps, forward and backward steps,
    steps to the warmup length, and whether it was capped.

    Every trial still walking has drawn the same number of rows."""
    s = params.n / (params.n + 1)
    goal = params.warmup_links + params.target_links
    steps, forward, backward, length = (np.zeros(trials.size, np.int64) for _ in range(4))
    warm_steps = np.full(trials.size, -1 if params.warmup_links else 0)
    active, drawn = np.arange(trials.size), 0
    while active.size and drawn < params.max_steps:
        k = active.size
        rows = min(_walk_rows(params.n, goal - int(length[active].min())),
                   params.max_steps - drawn, _BLOCK_UNIFORMS // (3 * k))
        fwd, back = _classify(streams.draw(trials[active].tolist(), _STREAM_STEP,
                                           [drawn] * k, [rows] * k, 3), s)
        lengths = _floored_lengths(length[active], np.subtract(fwd, back, dtype=np.int64))
        col, hit = _first_at_least(lengths, params.warmup_links)
        hit &= warm_steps[active] < 0  # never with no warmup: warm_steps starts at 0
        warm_steps[active[hit]] = drawn + col[hit] + 1
        col, done = _first_at_least(lengths, goal)
        used = np.where(done, col + 1, rows)
        within = np.arange(rows) < used[:, None]
        forward[active] += np.count_nonzero(fwd & within, axis=1)
        backward[active] += np.count_nonzero(back & within, axis=1)
        steps[active] += used
        length[active] = lengths[np.arange(k), used - 1]
        drawn += rows
        active = active[~done]
    capped = np.isin(np.arange(trials.size), active)
    return steps, forward, backward, np.where(warm_steps < 0, steps, warm_steps), capped


def _prep(params: WalkParams, streams: _Streams, trials: np.ndarray, marks: np.ndarray):
    """Preparation phase of a block: the (units, cs) spent by the ``marks[j]``-th
    prepared unit of each trial, for each row j of ``marks``.  The last row
    holds the largest marks; a mark of 0 costs nothing."""
    s = params.n / (params.n + 1)
    units, cs = np.zeros(marks.shape, np.int64), np.zeros(marks.shape, np.int64)
    drawn, spent, seen = (np.zeros(trials.size, np.int64) for _ in range(3))
    active = np.arange(trials.size)
    while active.size:
        rows = np.minimum(_prep_rows(params.n, marks[-1, active] - seen[active]),
                          _BLOCK_UNIFORMS // (2 * active.size))
        v = streams.draw(trials[active].tolist(), _STREAM_PREP, drawn[active].tolist(),
                         rows.tolist(), 2)
        first_ok = v[..., 0] < s  # such an attempt costs 2 ancillas, any other 1
        # count by flat position: successes, first-teleport successes, row starts
        start = np.arange(active.size + 1) * v.shape[1]
        wins, oks = np.flatnonzero(first_ok & (v[..., 1] < s)), np.flatnonzero(first_ok)
        win_at, ok_at = np.searchsorted(wins, start), np.searchsorted(oks, start)
        for mark, mark_units, mark_cs in zip(marks, units, cs):
            want = mark[active] - seen[active]
            hit = (want > 0) & (want <= np.diff(win_at))
            at = wins[win_at[:-1][hit] + want[hit] - 1]
            tried = at - start[:-1][hit] + 1
            i = active[hit]
            mark_units[i] = drawn[i] + tried
            mark_cs[i] = spent[i] + tried + np.searchsorted(oks, at, side="right") - ok_at[:-1][hit]
        drawn[active] += rows
        spent[active] += rows + np.diff(ok_at)
        seen[active] += np.diff(win_at)
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
    """Means and sample-corrected standard errors over a homogeneous trial list."""
    if not trials:
        raise ValueError("cannot aggregate an empty list of trials")
    done = [t for t in trials if not t.capped]
    if done:
        target = params.target_links
        apl = mean_stderr([t.measured_steps / target for t in done])
        upl = mean_stderr([t.measured_units / target for t in done])
        cpl = mean_stderr([t.measured_cs / target for t in done])
    else:
        apl = upl = cpl = Estimate(math.nan, math.nan)
    drift = mean_stderr([(t.forward - t.backward) / t.steps for t in trials if t.steps])
    return WalkStats(
        capped_trials=len(trials) - len(done),
        attempts_per_net_link=apl,
        units_per_link=upl,
        cs_per_link=cpl,
        drift=drift,
    )


def run_trials(params: WalkParams) -> list[TrialResult]:
    """All trial results in trial order, computed a block of trials at a time.

    Each trial draws from its own counter-based substreams, so the list does
    not depend on the block size.  ``params.threads`` has no effect.
    """
    rows = _walk_rows(params.n, params.warmup_links + params.target_links)
    block = max(1, _BLOCK_UNIFORMS // max(3 * rows, 2 * int(_prep_rows(params.n, rows))))
    return [result for first in range(0, params.trials, block)
            for result in _run_block(params, np.arange(first, min(first + block, params.trials)))]


def build_chain(params: WalkParams) -> WalkStats:
    """Run all trials and aggregate.

    Per-link rates are measured after the chain first reaches ``warmup_links``,
    excluding the reflecting-boundary transient so they estimate the long-run
    rates the closed forms describe.
    """
    return aggregate(run_trials(params), params)


@dataclass
class StepFrequencies:
    steps: int
    forward: int
    backward: int
    neutral: int
    drift: Estimate


def step_frequencies(n: int, steps: int, seed: int) -> StepFrequencies:
    """Vectorized batch of independent walk steps; used for drift studies."""
    rng = substream(seed, 0, _STREAM_STEP)
    s = n / (n + 1)
    fwd = bwd = 0
    left = steps
    while left > 0:
        k = min(1 << 20, left)
        forward, back = _classify(rng.random((k, 3)), s)
        fwd += int(forward.sum())
        bwd += int(back.sum())
        left -= k
    mean = (fwd - bwd) / steps
    var = (fwd + bwd) / steps - mean * mean
    return StepFrequencies(steps, fwd, bwd, steps - fwd - bwd,
                           Estimate(mean, math.sqrt(max(var, 0.0) / steps)))


class WeaveModel(Enum):
    """How a weave of two free arms with an order-m gate retries.

    FULL_CZ_RETRY: each round costs one ancilla and runs both sides'
    teleportations; a failed side burns its free arm and retries on a fresh
    one, so its arm count is its failures plus one.  INDEPENDENT_SIDES: each
    side retries alone until it succeeds (a geometric number of arms); a
    round costs one ancilla while either side still retries.
    """

    FULL_CZ_RETRY = "full-cz-retry"
    INDEPENDENT_SIDES = "independent-sides"


@dataclass
class WeaveStats:
    model: WeaveModel
    count: int
    cs_mean: Estimate
    arms_per_side: Estimate


def weave_batch(m: int, model: WeaveModel, count: int, seed: int) -> WeaveStats:
    """Vectorized lockstep batch of independent weaves (see :class:`WeaveModel`)."""
    s = m / (m + 1)
    rng = substream(seed, 0, _STREAM_STEP)
    if model is WeaveModel.FULL_CZ_RETRY:
        active = np.arange(count)
        cs = np.zeros(count, dtype=np.int64)
        fails = np.zeros((count, 2), dtype=np.int64)
        while active.size:
            u = rng.random((active.size, 2))
            cs[active] += 1
            ok = u < s
            fails[active, 0] += ~ok[:, 0]
            fails[active, 1] += ~ok[:, 1]
            active = active[~(ok[:, 0] & ok[:, 1])]
        arms = fails + 1
    else:
        arms = np.ones((count, 2), dtype=np.int64)
        for side in range(2):
            active = np.arange(count)
            while active.size:
                u = rng.random(active.size)
                failed = u >= s
                arms[active[failed], side] += 1
                active = active[failed]
        cs = arms.max(axis=1)
    return WeaveStats(model, count, mean_stderr(cs), mean_stderr(arms.ravel()))


@dataclass
class ClusterStats:
    count: int
    units_per_net_unit: float
    cs_per_net_unit: float
    net_links: int


def cluster_batch(n: int, count: int, seed: int) -> ClusterStats:
    """Long-run averages of the cluster attach model over ``count`` attempts.

    An attempt adds a four-photon unit with one order-n gate and, on failure,
    up to two repairs on successively earlier photons of the last unit; each
    gate attempt costs one ancilla, and three failures destroy the last unit
    (net -1).  This micro-model is an assumption: its long-run averages are
    compared to, not asserted against, ``cluster_resources_per_unit``.
    """
    p = float(analytics.cz_success(n))
    rng = substream(seed, 0, _STREAM_STEP)
    u = rng.random((count, 3)) < p
    first = u[:, 0]
    second = ~first & u[:, 1]
    third = ~first & ~u[:, 1] & u[:, 2]
    success = first | second | third
    cs = np.where(first, 1, np.where(second, 2, 3)).sum()
    net = int(success.sum()) - int((~success).sum())
    if net <= 0:
        return ClusterStats(count, math.inf, math.inf, net)
    return ClusterStats(count, count / net, float(cs) / net, net)
