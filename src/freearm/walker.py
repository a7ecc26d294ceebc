"""Seeded Monte Carlo for chain construction, weaving and the cluster variant.

Chain construction is a one-dimensional biased random walk.  Every walk step
consumes one "prepared unit": an off-line preparation in which the two
teleportations on the new two-photon unit are retried until both succeed
(each attempt costs one two-photon unit and one or two ancilla states).  The
on-chain half of the step then succeeds with probability (n/(n+1))^2; on
failure a fair coin decides whether the last linked photon was removed
(backward) or only the prepared unit was lost (neutral).

Randomness is drawn from counter-based Philox substreams keyed by
(seed, trial, stream) so every trial is independent and results are
bit-identical regardless of host parallelism.  Event draws have a fixed
width (2 uniforms per preparation attempt, 3 per walk step), so the
vectorized fast path in :func:`build_chain` consumes exactly the same
stream as the scalar reference functions.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import analytics

_STREAM_STEP = 0
_STREAM_PREP = 1
_CHUNK = 4096


def substream(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Independent Philox-backed generator for (seed, trial, stream)."""
    key = np.array([np.uint64(seed), np.uint64(trial * 4 + stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class StepOutcome(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    NEUTRAL = "neutral"


@dataclass
class ResourceTally:
    """Cumulative consumption of primitive resources."""

    two_photon_units: int = 0
    cs_states: dict[int, int] = field(default_factory=dict)
    free_arms: int = 0

    def add_cs(self, order: int, count: int) -> None:
        self.cs_states[order] = self.cs_states.get(order, 0) + count


@dataclass(frozen=True)
class WalkParams:
    n: int
    target_links: int
    trials: int
    seed: int
    max_steps: int = 1_000_000
    warmup_links: int = 50
    threads: int = 1

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
    neutral: int
    units: int
    cs: int
    final_links: int
    measured_steps: int
    measured_units: int
    measured_cs: int
    measured_links: int
    capped: bool


@dataclass
class WalkStats:
    params: WalkParams
    completed_trials: int
    capped_trials: int
    steps_taken: int
    forward: int
    backward: int
    neutral: int
    tally: ResourceTally
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


def simulate_prep(n: int, rng: np.random.Generator) -> tuple[int, ResourceTally]:
    """Off-line preparation of one unit: retry until both teleportations succeed.

    Each attempt burns one two-photon unit plus one ancilla if the first
    teleportation fails, two otherwise.
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
            tally = ResourceTally(two_photon_units=attempts)
            tally.add_cs(n, cs)
            return attempts, tally


def simulate_step(n: int, rng: np.random.Generator) -> StepOutcome:
    """On-chain half of a walk step (a prepared unit is consumed beforehand).

    The two teleportations on the last chain photon succeed independently with
    probability n/(n+1); on failure a fair coin decides backward vs neutral,
    so P(backward) = (1 - p)/2 with p = (n/(n+1))^2.  No ancillas are charged
    here: they were all paid for at preparation time.
    """
    u = rng.random(3)
    s = n / (n + 1)
    if u[0] < s and u[1] < s:
        return StepOutcome.FORWARD
    return StepOutcome.BACKWARD if u[2] < 0.5 else StepOutcome.NEUTRAL


def _floored_lengths(start: int, deltas: np.ndarray) -> np.ndarray:
    """Walk positions with a reflecting floor at 0, vectorized.

    For L_k = max(0, L_{k-1} + d_k) with L_0 = start, the closed form is
    L_k = S_k - min(0, min_{j<=k} S_j) with S_k = start + cumsum(d).
    """
    s = start + np.cumsum(deltas)
    return s - np.minimum(np.minimum.accumulate(s), 0)


def _run_trial(params: WalkParams, trial: int) -> TrialResult:
    n = params.n
    s = n / (n + 1)
    goal = params.warmup_links + params.target_links
    rng_step = substream(params.seed, trial, _STREAM_STEP)
    rng_prep = substream(params.seed, trial, _STREAM_PREP)

    # Walk phase: chunked fixed-width draws (3 uniforms per step).
    steps = fwd = bwd = 0
    length = 0
    warm_steps = 0 if params.warmup_links == 0 else None
    finished = False
    capped = False
    while not finished:
        k = min(_CHUNK, params.max_steps - steps)
        if k <= 0:
            capped = True
            break
        u = rng_step.random((k, 3))
        forward = (u[:, 0] < s) & (u[:, 1] < s)
        back = ~forward & (u[:, 2] < 0.5)
        delta = np.where(forward, 1, np.where(back, -1, 0))
        lengths = _floored_lengths(length, delta)
        cf = np.cumsum(forward)
        cb = np.cumsum(back)
        if warm_steps is None:
            hit = np.nonzero(lengths >= params.warmup_links)[0]
            if hit.size:
                warm_steps = steps + int(hit[0]) + 1
        hit = np.nonzero(lengths >= goal)[0]
        if hit.size:
            i = int(hit[0])
            steps += i + 1
            fwd += int(cf[i])
            bwd += int(cb[i])
            length = int(lengths[i])
            finished = True
        else:
            steps += k
            fwd += int(cf[-1])
            bwd += int(cb[-1])
            length = int(lengths[-1])
    neu = steps - fwd - bwd
    if warm_steps is None:
        warm_steps = steps

    # Preparation phase: one prep per walk step (2 uniforms per attempt).
    units = cs = 0
    units_at = {0: (0, 0)}  # prep count -> cumulative (units, cs) at that prep
    pending = sorted({m for m in (warm_steps, steps) if m > 0})
    succ_seen = 0
    while pending:
        v = rng_prep.random((_CHUNK, 2))
        first_ok = v[:, 0] < s
        success = first_ok & (v[:, 1] < s)
        ccs = np.cumsum(np.where(first_ok, 2, 1))
        pos = np.nonzero(success)[0]
        for mark in pending:
            want = mark - succ_seen
            if 1 <= want <= pos.size:
                i = int(pos[want - 1])
                units_at[mark] = (units + i + 1, cs + int(ccs[i]))
        pending = [m for m in pending if m not in units_at]
        if pending:
            succ_seen += int(pos.size)
            units += _CHUNK
            cs += int(ccs[-1])

    warm_units, warm_cs = units_at[warm_steps]
    total_units, total_cs = units_at[steps]
    measured_links = max(0, length - params.warmup_links) if not capped else 0
    return TrialResult(
        steps=steps,
        forward=fwd,
        backward=bwd,
        neutral=neu,
        units=total_units,
        cs=total_cs,
        final_links=length,
        measured_steps=steps - warm_steps,
        measured_units=total_units - warm_units,
        measured_cs=total_cs - warm_cs,
        measured_links=measured_links,
        capped=capped,
    )


def aggregate(trials: list[TrialResult], params: WalkParams) -> WalkStats:
    """Means and sample-corrected standard errors over a homogeneous trial list."""
    if not trials:
        raise ValueError("cannot aggregate an empty list of trials")
    tally = ResourceTally()
    steps = fwd = bwd = neu = 0
    for t in trials:
        steps += t.steps
        fwd += t.forward
        bwd += t.backward
        neu += t.neutral
        tally.two_photon_units += t.units
        tally.add_cs(params.n, t.cs)
        tally.free_arms += t.final_links
    done = [t for t in trials if not t.capped]
    capped = len(trials) - len(done)
    if done:
        links = params.target_links
        apl = mean_stderr([t.measured_steps / links for t in done])
        upl = mean_stderr([t.measured_units / links for t in done])
        cpl = mean_stderr([t.measured_cs / links for t in done])
    else:
        apl = upl = cpl = Estimate(math.nan, math.nan)
    drift = mean_stderr([(t.forward - t.backward) / t.steps for t in trials if t.steps])
    return WalkStats(
        params=params,
        completed_trials=len(done),
        capped_trials=capped,
        steps_taken=steps,
        forward=fwd,
        backward=bwd,
        neutral=neu,
        tally=tally,
        attempts_per_net_link=apl,
        units_per_link=upl,
        cs_per_link=cpl,
        drift=drift,
    )


def run_trials(params: WalkParams) -> list[TrialResult]:
    """All trial results in trial order, optionally on a thread pool.

    Each trial draws from its own counter-based substream, so the list is
    independent of ``threads``.
    """
    if params.threads > 1:
        with ThreadPoolExecutor(max_workers=params.threads) as pool:
            return list(pool.map(lambda t: _run_trial(params, t), range(params.trials)))
    return [_run_trial(params, t) for t in range(params.trials)]


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
        u = rng.random((k, 3))
        forward = (u[:, 0] < s) & (u[:, 1] < s)
        back = ~forward & (u[:, 2] < 0.5)
        fwd += int(forward.sum())
        bwd += int(back.sum())
        left -= k
    mean = (fwd - bwd) / steps
    var = (fwd + bwd) / steps - mean * mean
    return StepFrequencies(steps, fwd, bwd, steps - fwd - bwd,
                           Estimate(mean, math.sqrt(max(var, 0.0) / steps)))


class WeaveModel(Enum):
    FULL_CZ_RETRY = "full-cz-retry"
    INDEPENDENT_SIDES = "independent-sides"


@dataclass
class WeaveResult:
    cs_used: int
    arms_used_per_side: tuple[int, int]


def simulate_weave(m: int, model: WeaveModel, rng: np.random.Generator) -> WeaveResult:
    """One weave of two free arms with an order-m gate.

    FULL_CZ_RETRY: each round costs one ancilla and runs both sides'
    teleportations; a side that fails burns the free arm it was using and the
    next round starts over on fresh arms for the failed sides.  The arm count
    per side is its failure count plus the arm finally woven in.

    INDEPENDENT_SIDES: each side retries independently until its teleportation
    succeeds (a geometric number of arms); one ancilla is charged per round in
    which at least one side is still retrying.
    """
    s = m / (m + 1)
    if model is WeaveModel.FULL_CZ_RETRY:
        cs = 0
        fails = [0, 0]
        while True:
            u = rng.random(2)
            cs += 1
            ok_a, ok_b = u[0] < s, u[1] < s
            if ok_a and ok_b:
                return WeaveResult(cs, (fails[0] + 1, fails[1] + 1))
            fails[0] += not ok_a
            fails[1] += not ok_b
    arms = []
    for _ in range(2):
        count = 1
        while rng.random() >= s:
            count += 1
        arms.append(count)
    return WeaveResult(max(arms), (arms[0], arms[1]))


@dataclass
class WeaveStats:
    model: WeaveModel
    count: int
    cs_mean: Estimate
    arms_per_side: Estimate


def weave_batch(m: int, model: WeaveModel, count: int, seed: int) -> WeaveStats:
    """Vectorized lockstep batch of independent weaves, same event model as the scalar."""
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
class ClusterAttempt:
    units_used: int
    cs_used: int
    net_links: int


def simulate_cluster_attach(n: int, rng: np.random.Generator) -> ClusterAttempt:
    """One attempt to add a four-photon unit to a cluster-variant chain.

    Default model: attach via one order-n gate; on failure, up to two repair
    attempts on successively earlier photons of the last unit.  Every gate
    attempt costs one ancilla; the new unit costs one four-photon unit.  Three
    consecutive failures destroy the last unit in the chain (net -1).  This
    micro-model is an assumption; its long-run averages are compared to, not
    asserted against, the closed forms of ``cluster_resources_per_unit``.
    """
    p = float(analytics.cz_success(n))
    cs = 0
    for _ in range(3):
        cs += 1
        if rng.random() < p:
            return ClusterAttempt(1, cs, 1)
    return ClusterAttempt(1, cs, -1)


@dataclass
class ClusterStats:
    count: int
    units_per_net_unit: float
    cs_per_net_unit: float
    net_links: int


def cluster_batch(n: int, count: int, seed: int) -> ClusterStats:
    """Long-run averages of the cluster attach model over ``count`` attempts."""
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
