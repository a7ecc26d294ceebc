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
are grouped and on whichever thread.  :func:`run_trials` fills one (trials,
rows, width) array of compared uniforms per block of trials, sized from the
expected draws plus a few standard deviations, and finds every trial's first
hits in one pass along the rows; trials that need more rows continue in later
rounds.  Blocks run on a thread per usable CPU: numpy releases the GIL in the
fills and array passes that make up most of a block.  :func:`simulate_step`
and :func:`simulate_prep` read the same streams one event at a time, and the
weave and cluster batches read trial 0, stream 0 through :meth:`_Streams.draw`.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analytics

_STREAM_STEP = 0
_STREAM_PREP = 1
_MARGIN = 4.0  # standard deviations of headroom in each sized draw
_DIVERGENT_ROWS = 4096  # walk rows per round when the drift is not positive
_BLOCK_UNIFORMS = 1 << 21  # uniforms in flight over all workers, held as 1-byte compares
_CHUNK_UNIFORMS = 1 << 15  # doubles a worker holds at once: 256 kB
# _PAIR[a, b]: two bools (a, b) read as one uint16, in either byte order
_PAIR = np.array([[[0, 0], [0, 1]], [[1, 0], [1, 1]]], bool).view(np.uint16)[..., 0]


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
    threads: int | None = None  # workers running trial blocks; None: every usable CPU

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise analytics.OrderOutOfRangeError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise analytics.OrderOutOfRangeError("n must be >= 1")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise analytics.InputError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if self.target_links < 1 or self.trials < 1:
            raise analytics.InputError("target_links and trials must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise analytics.InputError(f"threads must be >= 1, got {self.threads}")
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
    arr = np.asarray(values)  # integers stay integers: numpy still sums them in float64
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
    forward, backward = _classify(rng.random(3) < _step_bounds(n))
    if forward:
        return StepOutcome.FORWARD
    return StepOutcome.BACKWARD if backward else StepOutcome.NEUTRAL


def _floored_lengths(start, deltas: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Walk positions with a reflecting floor at 0, vectorized along the last axis.

    For L_k = max(0, L_{k-1} + d_k) with L_0 = start, the closed form is
    L_k = S_k - min(0, min_{j<=k} S_j) with S_k = start + cumsum(d).
    ``start`` is a scalar or holds one start per row of ``deltas``.
    """
    lengths = np.cumsum(deltas, axis=-1, dtype=dtype)
    lengths += np.expand_dims(start, -1)
    floor = np.minimum.accumulate(lengths, axis=-1)
    np.minimum(floor, 0, out=floor)
    lengths -= floor
    return lengths


def _step_bounds(n: int) -> np.ndarray:
    """Bounds of a walk step's 3 uniforms: two teleportations, then a coin."""
    return np.array([n / (n + 1)] * 2 + [0.5])


def _classify(below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward masks of walk steps from ``below = uniforms < _step_bounds(n)``."""
    forward = below[..., 0] & below[..., 1]
    return forward, ~forward & below[..., 2]


class _Streams:
    """Reads substreams by re-keying one live Philox: microseconds, where
    constructing a ``Philox`` also seeds a ``SeedSequence`` from OS entropy."""

    def __init__(self, seed: int):
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)
        self._state = self._bits.state
        # written in place by each seek; the state setter copies them in
        self._key = np.array([seed, 0], dtype=np.uint64)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state["state"]["key"] = self._key
        self._state["state"]["counter"] = self._counter

    def seek(self, trial: int, stream: int, word: int) -> np.random.Generator:
        """The generator of substream (seed, trial, stream) after ``word`` doubles."""
        self._key[1] = trial * 4 + stream
        # Philox advances its counter before it computes each block of 4 words
        self._counter[0] = word // 4
        self._state["buffer_pos"] = 4
        self._bits.state = self._state
        if word % 4:
            self._bits.random_raw(word % 4)
        return self._gen

    def draw(self, trials, stream: int, drawn, rows, bounds: np.ndarray) -> np.ndarray:
        """Row i: whether each of ``rows[i]`` draws of ``len(bounds)`` doubles
        from substream (seed, trials[i], stream), after its first ``drawn[i]``
        draws, is below its column of ``bounds``; padded with False.  The doubles
        pass through a buffer of ``_CHUNK_UNIFORMS``: one byte per uniform stays."""
        width = len(bounds)
        out = np.zeros((len(trials), max(rows), width), bool)
        # full-shape bounds, at least a row: a compare broadcast along rows loops over columns
        limits = np.tile(bounds, (max(1, min(max(rows), _CHUNK_UNIFORMS // width)), 1))
        buf = np.empty(limits.shape)
        for row, trial, start, k in zip(out, trials, drawn, rows):
            gen = self.seek(trial, stream, width * start)
            for first in range(0, k, len(buf)):
                u = buf[:k - first]
                gen.random(out=u)
                np.less(u, limits[:len(u)], out=row[first:first + len(u)])
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


def _walk(params: WalkParams, streams: _Streams, trials: np.ndarray, budget: int):
    """Walk phase of a block: per trial the steps, forward and backward steps,
    steps to the warmup length, and whether it was capped.

    Every trial still walking has drawn the same number of rows."""
    bounds = _step_bounds(params.n)
    dtype = np.int32 if params.max_steps < 2 ** 31 else np.int64  # lengths <= max_steps
    goal = params.warmup_links + params.target_links
    steps, forward, backward, length = (np.zeros(trials.size, np.int64) for _ in range(4))
    warm_steps = np.full(trials.size, -1 if params.warmup_links else 0)
    active, drawn = np.arange(trials.size), 0
    while active.size and drawn < params.max_steps:
        k = active.size
        rows = min(_walk_rows(params.n, goal - int(length[active].min())),
                   params.max_steps - drawn, budget // (3 * k))
        fwd, back = _classify(streams.draw(trials[active].tolist(), _STREAM_STEP,
                                           [drawn] * k, [rows] * k, bounds))
        lengths = _floored_lengths(length[active], np.subtract(fwd, back, dtype=np.int8), dtype)
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


def _prep(params: WalkParams, streams: _Streams, trials: np.ndarray, marks: np.ndarray,
          budget: int):
    """Preparation phase of a block: the (units, cs) spent by the ``marks[j]``-th
    prepared unit of each trial, for each row j of ``marks``.  The last row
    holds the largest marks; a mark of 0 costs nothing."""
    bounds = _step_bounds(params.n)[:2]  # the two teleportations, no coin
    units, cs = np.zeros(marks.shape, np.int64), np.zeros(marks.shape, np.int64)
    drawn, spent, seen = (np.zeros(trials.size, np.int64) for _ in range(3))
    active = np.arange(trials.size)
    while active.size:
        rows = np.minimum(_prep_rows(params.n, marks[-1, active] - seen[active]),
                          budget // (2 * active.size))
        ok = streams.draw(trials[active].tolist(), _STREAM_PREP, drawn[active].tolist(),
                          rows.tolist(), bounds)
        # an attempt whose first teleportation succeeds costs 2 ancillas, any other 1;
        # count by flat position: successes, first-only successes, row starts
        start = np.arange(active.size + 1) * ok.shape[1]
        pairs = ok.view(np.uint16)[..., 0]  # contiguous, where ok[..., 0] is strided
        wins, halves = np.flatnonzero(pairs == _PAIR[1, 1]), np.flatnonzero(pairs == _PAIR[1, 0])
        win_at, half_at = np.searchsorted(wins, start), np.searchsorted(halves, start)
        for mark, mark_units, mark_cs in zip(marks, units, cs):
            want = mark[active] - seen[active]
            hit = (want > 0) & (want <= np.diff(win_at))
            at = wins[win_at[:-1][hit] + want[hit] - 1]
            tried = at - start[:-1][hit] + 1
            i = active[hit]
            mark_units[i] = drawn[i] + tried
            # one more ancilla per success up to the want-th and per first-only attempt
            mark_cs[i] = (spent[i] + tried + want[hit]
                          + np.searchsorted(halves, at) - half_at[:-1][hit])
        drawn[active] += rows
        spent[active] += rows + np.diff(win_at) + np.diff(half_at)
        seen[active] += np.diff(win_at)
        active = active[seen[active] < marks[-1, active]]
    return units, cs


def _workers(params: WalkParams) -> int:
    """Blocks that may run at once: ``params.threads``, at most the usable CPUs."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cpus = len(usable) if usable else os.cpu_count() or 1
    return min(params.threads or cpus, cpus)


def _run_block(params: WalkParams, trials: np.ndarray) -> list[TrialResult]:
    # each worker's share, so that all of them together hold _BLOCK_UNIFORMS
    streams, budget = _Streams(params.seed), _BLOCK_UNIFORMS // _workers(params)
    steps, fwd, bwd, warm_steps, capped = _walk(params, streams, trials, budget)
    (warm_units, units), (warm_cs, cs) = _prep(params, streams, trials,
                                               np.stack([warm_steps, steps]), budget)
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
    not depend on the block size or on which worker runs a block.  Blocks go
    to min(``params.threads``, usable CPUs, blocks) workers, the calling
    thread among them; the first exception a worker raises is re-raised here
    once every worker has stopped.
    """
    workers = _workers(params)
    rows = _walk_rows(params.n, params.warmup_links + params.target_links)
    per_trial = max(3 * rows, 2 * int(_prep_rows(params.n, rows)))
    size = max(1, _BLOCK_UNIFORMS // workers // per_trial)
    blocks = [np.arange(first, min(first + size, params.trials))
              for first in range(0, params.trials, size)]
    results, errors = [None] * len(blocks), []

    def work(first: int) -> None:  # every ``workers``-th block from ``first``
        try:
            for i in range(first, len(blocks), workers):
                if errors:
                    return
                results[i] = _run_block(params, blocks[i])
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    workers = min(workers, len(blocks))
    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [result for block in results for result in block]


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
    count: int
    cs_mean: Estimate
    arms_per_side: Estimate


def weave_batch(m: int, model: WeaveModel, count: int, seed: int) -> WeaveStats:
    """Vectorized lockstep batch of independent weaves (see :class:`WeaveModel`), drawn
    round by round, in weave order, from trial 0, stream 0 of the walker's streams."""
    s = float(analytics.ftel_success(m))
    streams, drawn = _Streams(seed), 0
    arms = np.ones((count, 2), np.uint16)  # wraps at 2^16 rounds: odds (3/4)^65535 at m >= 1
    if model is WeaveModel.FULL_CZ_RETRY:
        cs = np.zeros(count, np.uint16)
        active = np.arange(count)
        while active.size:
            ok = streams.draw([0], _STREAM_STEP, [drawn], [active.size], np.array([s, s]))[0]
            drawn += active.size
            cs[active] += 1
            arms[active, 0] += ~ok[:, 0]
            arms[active, 1] += ~ok[:, 1]
            active = active[~(ok[:, 0] & ok[:, 1])]
    else:
        for side in range(2):
            active = np.arange(count)
            while active.size:
                ok = streams.draw([0], _STREAM_STEP, [drawn], [active.size], np.array([s]))
                drawn += active.size
                active = active[~ok[0, :, 0]]
                arms[active, side] += 1
        cs = np.maximum(arms[:, 0], arms[:, 1])
    return WeaveStats(count, mean_stderr(cs), mean_stderr(arms.ravel()))


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
    tries = _Streams(seed).draw([0], _STREAM_STEP, [0], [count], np.array([p] * 3))[0]
    # an attempt costs one ancilla per try up to its first success, at most three
    miss = ~tries[:, 0]
    cs = count + int(np.count_nonzero(miss))
    miss &= ~tries[:, 1]
    cs += int(np.count_nonzero(miss))
    miss &= ~tries[:, 2]
    net = count - 2 * int(np.count_nonzero(miss))
    if net <= 0:
        return ClusterStats(count, math.inf, math.inf)
    return ClusterStats(count, count / net, cs / net)
