"""Monte Carlo walker tests: determinism, distributions, convergence."""

import math
import threading
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the [test] extra; without it only the property test is left out
    hypothesis = None

import walk_moments
from freearm import analytics, walker


def geometric_prep_expectations(n, cutoff=400):
    """Independent truncated-sum oracle for mean attempts and ancillas per prep.

    Each attempt succeeds with probability s^2 (s = n/(n+1)); a failed attempt
    costs 2 ancillas when only the second teleportation failed, 1 otherwise;
    the final successful attempt costs 2.
    """
    s = Fraction(n, n + 1)
    p = s * s
    cs_fail = (2 * s * (1 - s) + (1 - s)) / (1 - p)
    e_attempts = sum(k * (1 - p) ** (k - 1) * p for k in range(1, cutoff))
    e_cs = sum(((k - 1) * cs_fail + 2) * (1 - p) ** (k - 1) * p for k in range(1, cutoff))
    return float(e_attempts), float(e_cs)


def capped_walk(n, steps, trials, seed):
    """A walk whose target needs every step forward, so each trial runs all
    ``steps`` steps; a fixed length keeps the step counts free of the bias
    that stopping at the target would add."""
    params = walker.WalkParams(n=n, target_links=steps, warmup_links=0, max_steps=steps,
                               trials=trials, seed=seed)
    results = walker.run_trials(params)
    assert all(t.capped and t.steps == steps for t in results)
    return params, results


def bounded(fn, timeout=60.0):
    """``fn()`` on a helper thread that must finish within ``timeout`` seconds:
    its result, or the exception it raised."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:  # re-raised below, on the test's thread
            out["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), f"still running after {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


# --- Slow scalar oracles: the event models one draw or one trial at a time ---

_CHUNK = 4096


def _floored_lengths_1d(start, deltas):
    s = start + np.cumsum(deltas)
    return s - np.minimum(np.minimum.accumulate(s), 0)


def floored_lengths(start, deltas: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Walk positions with a reflecting floor at 0, vectorized along the last axis.

    For L_k = max(0, L_{k-1} + d_k) with L_0 = start, the closed form is
    L_k = S_k - min(0, min_{j<=k} S_j) with S_k = start + cumsum(d).
    ``start`` is a scalar or holds one start per row of ``deltas``.  The running
    minimum stops at the latest first minimum of a row below 0: past it, no floor moves.
    """
    lengths = np.cumsum(deltas, axis=-1, dtype=dtype)
    lengths += np.expand_dims(start, -1)
    rows = lengths.reshape(-1, lengths.shape[-1])  # 1-D input is one row
    first = rows.argmin(axis=1)
    low = rows[np.arange(rows.shape[0]), first]
    if low.min() < 0:
        end = int(first[low < 0].max()) + 1
        floor = np.minimum.accumulate(rows[:, :end], axis=1)
        np.minimum(floor, 0, out=floor)
        rows[:, :end] -= floor
        rows[:, end:] -= np.minimum(low, 0)[:, None]
    return rows.reshape(lengths.shape)


def first_at_least(values: np.ndarray, target) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``values``: the first column that reaches ``target``, and whether one does."""
    reach = values >= target
    col = reach.argmax(axis=1)
    return col, reach[np.arange(col.size), col]


def prefix_round(codes, start, warm, goal):
    """``walker._walk_round`` from the floored length after every step of
    every row: the whole-row prefix the tile passes replace."""
    fwd, bwd = codes == 2, codes == 1
    lengths = floored_lengths(start, fwd.view(np.int8) - bwd.view(np.int8))
    warm_col, warm_hit = first_at_least(lengths, np.asarray(warm)[:, None])
    col, done = first_at_least(lengths, goal)
    used = np.where(done, col + 1, codes.shape[1])
    within = np.arange(codes.shape[1]) < used[:, None]
    return (np.where(warm_hit, warm_col, -1), np.where(done, col, -1), (fwd & within).sum(1),
            (bwd & within).sum(1), lengths[np.arange(len(start)), used - 1])


def chunked_trial(params, trial):
    """One trial in 4096-double chunks of its two substreams, one trial at a
    time, one double per event against bounds from the exact rationals."""
    s = Fraction(params.n, params.n + 1)
    p = s * s
    s, p, back_below = float(s), float(p), float((1 + p) / 2)
    goal = params.warmup_links + params.target_links
    rng_step = walker.substream(params.seed, trial, 0)
    rng_prep = walker.substream(params.seed, trial, 1)

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
        u = rng_step.random(k)
        forward = u < p
        back = ~forward & (u < back_below)
        delta = np.where(forward, 1, np.where(back, -1, 0))
        lengths = _floored_lengths_1d(length, delta)
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
    if warm_steps is None:
        warm_steps = steps

    units = cs = 0
    units_at = {0: (0, 0)}  # prep count -> cumulative (units, cs) at that prep
    pending = sorted({m for m in (warm_steps, steps) if m > 0})
    succ_seen = 0
    while pending:
        v = rng_prep.random(_CHUNK)
        first_ok = v < s
        success = v < p
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
    return walker.TrialResult(
        steps=steps, forward=fwd, backward=bwd,
        units=total_units, cs=total_cs,
        measured_steps=steps - warm_steps,
        measured_units=total_units - warm_units,
        measured_cs=total_cs - warm_cs,
        capped=capped)


def three_uniform_step(n, rng):
    """A walk step read from 3 uniforms, as the walker once drew it: forward
    when both teleportations succeed (each below n/(n+1)), then a fair coin
    for backward against neutral."""
    s = n / (n + 1)
    u = rng.random(3)
    if u[0] < s and u[1] < s:
        return walker.StepOutcome.FORWARD
    return walker.StepOutcome.BACKWARD if u[2] < 0.5 else walker.StepOutcome.NEUTRAL


def two_uniform_prep(n, rng):
    """A preparation read from 2 uniforms per attempt, as the walker once drew
    it: (attempts, ancillas), one ancilla more when the first teleportation
    succeeds."""
    s = n / (n + 1)
    attempts = cs = 0
    while True:
        u = rng.random(2)
        attempts += 1
        cs += 2 if u[0] < s else 1
        if u[0] < s and u[1] < s:
            return attempts, cs


def scalar_segment(n, links, step, prep, rng):
    """Steps, units and ancillas to grow an empty chain to ``links`` links,
    one event at a time."""
    length = steps = units = cs = 0
    while length < links:
        outcome = step(n, rng)
        steps += 1
        attempts, ancillas = prep(n, rng)
        units, cs = units + attempts, cs + ancillas
        if outcome is walker.StepOutcome.FORWARD:
            length += 1
        elif outcome is walker.StepOutcome.BACKWARD:
            length = max(0, length - 1)
    return steps, units, cs


def absorbing_chain_steps(n, links):
    """Mean and variance of the steps from length 0 to ``links`` by solving
    the absorbing chain's equations in Fractions: h = 1 + Q h for the mean
    and g = 1 + Q (2h + g) for the second moment, Q the moves among lengths
    0 .. links-1."""
    p = analytics.cz_success(n)
    b = (1 - p) / 2
    q = [[Fraction(0)] * links for _ in range(links)]
    for x in range(links):
        q[x][x] += 1 - p - b
        q[x][max(x - 1, 0)] += b
        if x + 1 < links:
            q[x][x + 1] += p

    def solve(rhs):  # (I - Q) v = rhs by Gauss-Jordan elimination
        rows = [[int(i == j) - q[i][j] for j in range(links)] + [rhs[i]] for i in range(links)]
        for col in range(links):
            pivot = next(r for r in range(col, links) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [v / rows[col][col] for v in rows[col]]
            for r in range(links):
                if r != col and rows[r][col]:
                    rows[r] = [a - rows[r][col] * c for a, c in zip(rows[r], rows[col])]
        return [row[-1] for row in rows]

    h = solve([Fraction(1)] * links)
    g = solve([1 + 2 * sum(q[x][y] * h[y] for y in range(links)) for x in range(links)])
    return h[0], g[0] - h[0] ** 2


@dataclass
class WeaveResult:
    cs_used: int
    arms_used_per_side: tuple[int, int]


def simulate_weave(m, model, rng):
    """One weave of two free arms with an order-m gate (see ``walker.WeaveModel``)."""
    s = m / (m + 1)
    if model is walker.WeaveModel.FULL_CZ_RETRY:
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
class ClusterAttempt:
    units_used: int
    cs_used: int
    net_links: int


def simulate_cluster_attach(n, rng):
    """One attempt to add a four-photon unit (see ``walker.cluster_batch``);
    like the batch, it draws all three tries' uniforms."""
    p = float(analytics.cz_success(n))
    cs = 0
    for u in rng.random(3):
        cs += 1
        if u < p:
            return ClusterAttempt(1, cs, 1)
    return ClusterAttempt(1, cs, -1)


def lockstep_weaves(m, model, count, rng):
    """``count`` weaves one draw at a time, in the batch's order: each round,
    every weave still retrying draws in weave order; with independent sides,
    every weave's side 0 retries before any side 1.  Returns the ancillas of
    each weave and the arms of each side, weave by weave."""
    s = m / (m + 1)
    cs, arms = [0] * count, [[1, 1] for _ in range(count)]
    if model is walker.WeaveModel.FULL_CZ_RETRY:
        active = list(range(count))
        while active:
            retry = []
            for w in active:
                ok = rng.random(2) < s
                cs[w] += 1
                arms[w][0] += not ok[0]
                arms[w][1] += not ok[1]
                if not (ok[0] and ok[1]):
                    retry.append(w)
            active = retry
    else:
        for side in range(2):
            active = list(range(count))
            while active:
                active = [w for w in active if rng.random() >= s]
                for w in active:
                    arms[w][side] += 1
        cs = [max(pair) for pair in arms]
    return cs, [a for pair in arms for a in pair]


def exact_mean_stderr(values):
    """Sample mean and ddof=1 standard error of integer ``values``, each
    rounded once from its exact rational."""
    values = [int(v) for v in values]
    n = len(values)
    mean = Fraction(sum(values), n)
    if n == 1:
        return walker.Estimate(float(mean), 0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return walker.Estimate(float(mean), math.sqrt(var / n))


def whole_weave_batch(m, model, count, seed):
    """``walker.weave_batch`` with each round's uniforms as one float64 array
    from ``substream`` and int64 counters."""
    s = m / (m + 1)
    rng = walker.substream(seed, 0, 0)
    if model is walker.WeaveModel.FULL_CZ_RETRY:
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
        cs = np.maximum(arms[:, 0], arms[:, 1])
    return walker.WeaveStats(count, exact_mean_stderr(cs), exact_mean_stderr(arms.ravel()))


def whole_cluster_batch(n, count, seed):
    """``walker.cluster_batch`` with all uniforms as one float64 array from ``substream``."""
    p = float(analytics.cz_success(n))
    u = walker.substream(seed, 0, 0).random((count, 3)) < p
    first = u[:, 0]
    second = ~first & u[:, 1]
    third = ~first & ~u[:, 1] & u[:, 2]
    success = first | second | third
    cs = np.where(first, 1, np.where(second, 2, 3)).sum()
    net = int(success.sum()) - int((~success).sum())
    if net <= 0:
        return walker.ClusterStats(count, math.inf, math.inf)
    return walker.ClusterStats(count, count / net, float(cs) / net)


def per_trial_aggregate(trials, params):
    """``walker.aggregate`` one :class:`walker.TrialResult` at a time, as it was
    written over a list of them: each rate and drift an ``int / int``."""
    done = [t for t in trials if not t.capped]
    rates = [walker.mean_stderr([getattr(t, field) / params.target_links for t in done])
             if done else walker.Estimate(math.nan, math.nan)
             for field in ("measured_steps", "measured_units", "measured_cs")]
    drift = walker.mean_stderr([(t.forward - t.backward) / t.steps for t in trials if t.steps])
    return walker.WalkStats(len(trials) - len(done), *rates, drift)


def traced_peak(fn):
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = walker.substream(5, 3).random(10)
        b = walker.substream(5, 3).random(10)
        assert np.array_equal(a, b)

    def test_distinct_trials_distinct_streams(self):
        a = walker.substream(5, 3).random(10)
        b = walker.substream(5, 4).random(10)
        assert not np.array_equal(a, b)

    def test_prep_and_step_streams_disjoint(self):
        a = walker.substream(5, 3, 0).random(10)
        b = walker.substream(5, 3, 1).random(10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("trial", [0, 3, 2 ** 61 - 1])
    @pytest.mark.parametrize("stream", [0, 1, 3])
    def test_substream_is_jumped_pcg64dxsm(self, seed, trial, stream):
        """Substream (seed, trial, stream) is numpy's parallel-stream jump
        4 * trial + stream of PCG64DXSM(seed)."""
        bits = np.random.PCG64DXSM(seed).jumped(4 * trial + stream)
        assert np.array_equal(walker.substream(seed, trial, stream).random(8),
                              np.random.Generator(bits).random(8))

    @pytest.mark.parametrize("seed, trial", [(0, 0), (5, 3), (2 ** 64 - 1, 2 ** 61 - 1)])
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 4099])
    def test_reader_equals_substream(self, seed, trial, stream, start, monkeypatch):
        """One reader reads the same doubles as fresh substreams after forward,
        backward and interleaved seeks and after empty rows; the rows of
        several trials follow each other in one flat array, classified chunk
        by chunk across row ends.  Each code counts the bounds its double
        lies below."""
        monkeypatch.setattr(walker, "_CHUNK_UNIFORMS", 4)
        full = walker.substream(seed, trial, stream).random(start + 9)
        want = full[start:]
        other = walker.substream(seed, trial + 1, 1 - stream).random(8)
        streams, out, head = walker._Streams(seed), np.empty(9), min(start, 9)
        streams.read(trial + 1, 1 - stream, 2, out[:6])  # another substream first
        assert np.array_equal(out[:6], other[2:])
        streams.read(trial, stream, start, out)  # from one substream to another
        assert np.array_equal(out, want)
        streams.read(trial, stream, 0, out[:head])  # backward within a substream
        assert np.array_equal(out[:head], full[:head])
        streams.read(trial, stream, start + 3, out[:6])  # forward within it
        assert np.array_equal(out[:6], want[3:])
        streams.read(trial + 1, 1 - stream, 0, out[:8])  # and back to the other
        assert np.array_equal(out[:8], other)
        got = streams.draw([trial, trial + 1, trial], stream, [start, 0, 0], [9, 0, 3], (0.5,))
        assert got.dtype == np.int8
        assert np.array_equal(got, np.r_[want, full[:3]] < 0.5)
        got = streams.draw([trial + 1, trial], stream, [5, start], [0, 9], (0.5,))
        assert np.array_equal(got, want < 0.5)  # an empty row first
        for bounds in [(0.3, 0.7), (0.7, 0.3)]:
            got = streams.draw([trial], stream, [start], [9], bounds)
            assert np.array_equal(got, (want < 0.3).astype(int) + (want < 0.7))


class TestMeanStderr:
    """Integer samples (the batch counters) get exact moments from per-value
    counts; other samples keep numpy's float moments."""

    @pytest.mark.parametrize("kind", [list, np.array], ids=["list", "array"])
    @pytest.mark.parametrize("values", [[7, 7], [0, 1], [1, 2], [65, 65, 65], [3] * 100,
                                        [1, 2, 2, 3, 9, 1, 1], [0] * 5 + [255]])
    def test_small_counters_match_fraction_oracle(self, values, kind):
        got = walker.count_mean_stderr(kind(np.bincount(values).tolist()))
        assert got == exact_mean_stderr(values)
        if len(set(values)) == 1:
            assert got.stderr == 0.0

    @pytest.mark.parametrize("top", [2 ** 8 - 1, 2 ** 16 - 1])
    def test_counts_up_to_the_counter_limit(self, top):
        values = np.random.default_rng(3).geometric(0.3, 1000)
        values[-1] = top
        assert walker.count_mean_stderr(np.bincount(values)) == exact_mean_stderr(values)

    def test_counts_past_int64_moments(self):
        """10^10 samples of each of 1 and 2: n^2 (n - 1) overflows int64."""
        n = 2 * 10 ** 10
        got = walker.count_mean_stderr(np.array([0, n // 2, n // 2]))
        assert got == walker.Estimate(1.5, math.sqrt(Fraction(1, 4 * (n - 1))))

    def test_single_value_and_empty(self):
        assert walker.count_mean_stderr([0, 0, 0, 0, 1]) == walker.Estimate(4.0, 0.0)
        assert walker.mean_stderr([4.5]) == walker.Estimate(4.5, 0.0)
        for empty in ([], [0, 0]):
            with pytest.raises(ValueError):
                walker.count_mean_stderr(empty)
        with pytest.raises(ValueError):
            walker.mean_stderr([])

    def test_other_samples_keep_numpy_moments(self):
        values = [0.5, 1.25, 4.0]
        arr = np.array(values)
        assert walker.mean_stderr(values) == walker.Estimate(
            float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(3)))


class TestPrepAndStep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_prep_mean_matches_oracle(self, n):
        rng = walker.substream(11, 0, 1)
        rows = [walker.simulate_prep(n, rng) for _ in range(40000)]
        attempts = np.array([a for a, _ in rows], dtype=float)
        cs = np.array([c for _, c in rows], dtype=float)
        e_att, e_cs = geometric_prep_expectations(n)
        assert abs(attempts.mean() - e_att) < 3 * attempts.std() / 200
        assert abs(cs.mean() - e_cs) < 3 * cs.std() / 200
        # the oracle sums agree with the closed forms
        assert abs(e_att - (n + 1) ** 2 / n ** 2) < 1e-9
        assert abs(e_cs - (2 * n + 1) * (n + 1) / n ** 2) < 1e-9

    def test_prep_ancillas_within_one_to_two_per_attempt(self):
        rng = walker.substream(0, 0, 1)
        for _ in range(200):
            attempts, cs = walker.simulate_prep(2, rng)
            assert attempts <= cs <= 2 * attempts

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_step_frequencies_match_probabilities(self, n):
        _, trials = capped_walk(n, 20_000, 10, seed=13)
        steps = sum(t.steps for t in trials)
        forward = sum(t.forward for t in trials)
        backward = sum(t.backward for t in trials)
        p = float(analytics.cz_success(n))
        q = float(analytics.step_back_prob(n))
        for observed, expected in [(forward, p), (backward, q),
                                   (steps - forward - backward, q)]:
            rate = observed / steps
            sigma = math.sqrt(expected * (1 - expected) / steps)
            assert abs(rate - expected) < 4 * sigma

    def test_order_one_drift_negative(self):
        params, trials = capped_walk(1, 50_000, 10, seed=2)
        drift = walker.aggregate(trials, params).drift
        assert drift.mean < 0
        assert abs(drift.mean - (-0.125)) < 3 * drift.stderr


# Each gate below allows GATE_Z exact standard deviations of the mean: under
# the normal approximation a correct sampler fails one estimate with
# probability 3.8e-8, and all 15 estimates gated here with at most 5.7e-7.
GATE_Z = 5.5


class TestFiniteChainGate:
    """Both samplers against the exact finite-chain means at warmup 0 and
    L = 5 links, where the asymptotic per-link targets do not hold."""

    LINKS = 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("links", [1, 2, 5])
    def test_moments_match_absorbing_chain(self, n, links):
        steps = walk_moments.segment(n, 0, links)["attempts_per_net_link"]
        assert (steps.mean * links, steps.var * links ** 2) == absorbing_chain_steps(n, links)

    def test_prep_moments_match_closed_forms(self):
        for n in range(1, 8):
            attempts, ancillas = walk_moments.prep_moments(n)
            assert attempts.mean == analytics.per_step_units(n)
            assert ancillas.mean == analytics.per_step_cs(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_warmup_targets_are_asymptotic(self, n):
        """After the default 50 warmup links the finite-chain means differ
        from the closed forms by under 1e-10 of their value: E_k approaches
        its limit as (b/p)^k, and (5/8)^50 is 6e-11 at n = 2 (the per-link
        gap over 100 links is 6.2e-12 there).  So the asymptotic gates of
        ``walk`` and the benchmark stay valid."""
        exact = walk_moments.segment(n, 50, 100)
        link = analytics.resources_per_link(n)
        for key, target in [("attempts_per_net_link", analytics.attempts_per_link(n)),
                            ("units_per_link", link.two_photon_units),
                            ("cs_per_link", link.cs_states)]:
            assert 0 < target - exact[key].mean < 1e-10 * target
        # while at warmup 0 and L = 5 they are more than 10% apart
        short = walk_moments.segment(n, 0, self.LINKS)["attempts_per_net_link"].mean
        assert analytics.attempts_per_link(n) - short > analytics.attempts_per_link(n) / 10

    @staticmethod
    def gate(means, n, trials):
        for key, exact in walk_moments.segment(n, 0, TestFiniteChainGate.LINKS).items():
            sigma = math.sqrt(exact.var / trials)
            assert abs(means[key] - float(exact.mean)) <= GATE_Z * sigma, key

    @pytest.mark.parametrize("n", [2, 3])
    def test_run_trials(self, n):
        params = walker.WalkParams(n=n, target_links=self.LINKS, trials=20_000, seed=31,
                                   warmup_links=0)
        stats = walker.aggregate(walker.run_trials(params), params)
        assert stats.capped_trials == 0
        self.gate({key: getattr(stats, key).mean for key in walk_moments.segment(n, 0, 1)},
                  n, params.trials)

    @pytest.mark.parametrize("n", [2, 3])
    def test_three_and_two_uniform_oracle(self, n):
        """The sampler that read 3 uniforms per step and 2 per attempt has the
        same exact means."""
        rng, trials = np.random.Generator(np.random.Philox(32)), 4000
        totals = np.array([scalar_segment(n, self.LINKS, three_uniform_step,
                                          two_uniform_prep, rng) for _ in range(trials)])
        means = totals.mean(axis=0) / self.LINKS
        self.gate(dict(zip(walk_moments.segment(n, 0, 1), means)), n, trials)


def scalar_floored(start, deltas):
    """L_k = max(0, L_{k-1} + d_k) one step at a time."""
    lengths = []
    for d in deltas:
        start = max(0, start + int(d))
        lengths.append(start)
    return lengths


class TestFlooredWalk:
    def test_floor_closed_form_matches_scalar(self):
        rng = np.random.default_rng(4)
        deltas = rng.integers(-1, 2, size=500)
        assert np.array_equal(floored_lengths(3, deltas), scalar_floored(3, deltas))

    ROWS = {
        "never below 0": ([0, 1, -1, 1, 1, -1, 0, -1], 0),
        "first minimum last": ([1, -1, -1, 0, 1, -1, -1, -1], 0),
        "below 0 at once": ([-1, -1, 1, 1, 1, 1, -1, 1], 0),
        "start above 0, never below": ([-1, -1, -1, 1, -1, 0, 1, 1], 3),
        "start above 0, minimum last": ([-1, -1, 1, -1, -1, -1, 0, -1], 2),
        "minimum reached twice": ([-1, 1, -1, 1, -1, 1, 1, 1], 0),
    }

    @pytest.mark.parametrize("names", [["never below 0"], ["first minimum last"],
                                       ["never below 0", "first minimum last"],
                                       ["start above 0, never below", "below 0 at once"],
                                       list(ROWS)])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_rows_match_scalar(self, names, dtype):
        deltas = np.array([self.ROWS[name][0] for name in names], np.int8)
        starts = np.array([self.ROWS[name][1] for name in names])
        got = floored_lengths(starts, deltas, dtype)
        assert got.dtype == dtype
        assert got.tolist() == [scalar_floored(s, d) for s, d in zip(starts, deltas)]

    if hypothesis is not None:
        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
        @hypothesis.given(st.integers(1, 8).flatmap(lambda width: st.lists(
            st.tuples(st.integers(0, 4), st.lists(st.integers(-1, 1), min_size=width,
                                                   max_size=width)), min_size=1, max_size=6)))
        def test_random_rows_match_scalar(self, rows):
            """Rows of one width with their starts, against the scalar floor."""
            starts = np.array([start for start, _ in rows])
            deltas = np.array([d for _, d in rows], np.int8)
            assert (floored_lengths(starts, deltas).tolist()
                    == [scalar_floored(start, d) for start, d in rows])


NEVER = np.iinfo(np.int64).max  # the warmup level of a trial already past it


def walk_codes(rows):
    """Walk codes from strings of steps: '+' forward (2), '-' backward (1), '0' neutral."""
    return np.array([["0-+".index(c) for c in row] for row in rows], np.int8)


class TestTilePasses:
    """``walker._walk_round`` and the preparation tile counts at tile widths
    of 4 and 8 codes, against the whole-row prefix and ``flatnonzero``."""

    ROUNDS = {  # rows, starts, warmup levels, goal
        "floor moves inside a tile": (["+--0-+--++++++++", "0+0--0+-0---+-++"],
                                      [0, 0], [NEVER, NEVER], 6),
        "passage on a tile edge": (["++++0000", "0000++++", "+++0+000"],
                                   [0, 0, 0], [NEVER, NEVER, NEVER], 4),
        "warmup and goal passages in one tile": (["0000++++", "-+-+++++"], [0, 0], [2, 2], 4),
        "padded last tile": (["0000000+++0", "00000000000", "+0000000+-+"],
                             [0, 0, 0], [NEVER, 2, 1], 3),
        "rows that never pass": (["+-+-+-+-+-+-+-+-", "----------------", "++++++++--------"],
                                 [0, 2, 1], [NEVER, NEVER, 5], 10),
        "starts above 0": (["--------++++++++", "0-0-0-0-+++++++0", "+-+0++-+--0-++-+"],
                           [5, 3, 6], [7, NEVER, 7], 8),
    }

    @pytest.mark.parametrize("width", [4, 8])
    @pytest.mark.parametrize("name", list(ROUNDS))
    def test_rounds_match_prefix(self, name, width, monkeypatch):
        monkeypatch.setattr(walker, "_tile_width", lambda rows: width)
        rows, starts, warm, goal = self.ROUNDS[name]
        codes, starts, warm = walk_codes(rows), np.array(starts), np.array(warm)
        got = walker._walk_round(codes, starts, warm, goal)
        want = prefix_round(codes, starts, warm, goal)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_hand_counted_passages(self):
        """The edge and same-tile rounds' passages, counted by hand: at widths
        4 and 8, columns 3, 4 and 7 are tile edges and columns 4-7 one tile."""
        rows, starts, warm, goal = self.ROUNDS["passage on a tile edge"]
        assert prefix_round(walk_codes(rows), np.array(starts), warm, goal)[1].tolist() == [3, 7, 4]
        rows, starts, warm, goal = self.ROUNDS["warmup and goal passages in one tile"]
        got = prefix_round(walk_codes(rows), np.array(starts), warm, goal)
        assert (got[0].tolist(), got[1].tolist()) == ([5, 4], [7, 6])

    if hypothesis is not None:
        @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
        @hypothesis.given(st.data())
        def test_random_rounds_match_prefix(self, data):
            """Rounds of any length from any start below the goal, each row
            waiting for a warmup level above its start or for none."""
            goal = data.draw(st.integers(1, 8))
            width = data.draw(st.sampled_from([4, 8, 32]))
            steps = data.draw(st.integers(1, 40))
            rows = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=steps,
                                               max_size=steps), min_size=1, max_size=5))
            starts = np.array([data.draw(st.integers(0, goal - 1)) for _ in rows])
            warm = np.array([data.draw(st.one_of(st.just(NEVER), st.integers(s + 1, goal)))
                             for s in starts])
            codes = np.array(rows, np.int8)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(walker, "_tile_width", lambda rows: width)
                got = walker._walk_round(codes, starts, warm, goal)
            want = prefix_round(codes, starts, warm, goal)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    @pytest.mark.parametrize("size", [203, 256])
    @pytest.mark.parametrize("width", [4, 8, 32])
    def test_prep_counts_match_flatnonzero(self, width, size):
        """Per flat position, the successes (2) and first-only attempts (1)
        before it, and the position of every success, from tile counts and
        one tile's scan; 203 codes pad the last tile."""
        codes = np.random.default_rng(size).choice(3, size, p=[0.3, 0.3, 0.4]).astype(np.int8)
        tiles, wins, halves = walker._tiled(codes, width)
        win_at, half_at = np.r_[0, np.cumsum(wins)], np.r_[0, np.cumsum(halves)]
        twos, ones = np.flatnonzero(codes == 2), np.flatnonzero(codes == 1)
        at = np.arange(size + 1)
        got = walker._count_before(tiles, win_at, half_at, at)
        assert got[0].tolist() == np.searchsorted(twos, at).tolist()
        assert got[1].tolist() == np.searchsorted(ones, at).tolist()
        wanted = walker._nth_win(tiles, win_at, np.arange(1, twos.size + 1))
        assert wanted.tolist() == twos.tolist()
        assert (walker._count_before(tiles, win_at, half_at, wanted)[1].tolist()
                == np.searchsorted(ones, twos).tolist())

    def test_tile_width(self):
        """A power of two near the square root of the row length, 32 to 1024."""
        assert [walker._tile_width(rows) for rows in (1, 600, 1500, 2225, 10_485, 1 << 20, 1 << 30)
                ] == [32, 32, 32, 64, 128, 1024, 1024]


class TestBuildChain:
    def test_scalar_reference_equals_vectorized_trial(self):
        """The chunked trial consumes the same substreams as the scalar loop."""
        params = walker.WalkParams(n=2, target_links=20, trials=1, seed=9,
                                   warmup_links=0)
        got, = map(walker.TrialResult, *(column.tolist() for column in
                                         walker._run_block(params, np.array([0]))))
        rng_step = walker.substream(9, 0, 0)
        rng_prep = walker.substream(9, 0, 1)
        length = steps = 0
        while length < 20:
            out = walker.simulate_step(2, rng_step)
            steps += 1
            if out is walker.StepOutcome.FORWARD:
                length += 1
            elif out is walker.StepOutcome.BACKWARD:
                length = max(0, length - 1)
        units = cs = 0
        for _ in range(steps):
            attempts, ancillas = walker.simulate_prep(2, rng_prep)
            units += attempts
            cs += ancillas
        assert (got.steps, got.units, got.cs) == (steps, units, cs)

    @pytest.mark.parametrize("width", [None, 4, 8])
    @pytest.mark.parametrize("kw, budget", [
        (dict(n=2, target_links=30, trials=37, seed=5), 1 << 15),
        (dict(n=2, target_links=30, trials=37, seed=5, warmup_links=0), 1 << 14),
        (dict(n=3, target_links=60, trials=13, seed=2 ** 64 - 1, warmup_links=7), 1 << 12),
        (dict(n=5, target_links=40, trials=11, seed=3, warmup_links=0), 1 << 11),
        (dict(n=1, target_links=50, trials=7, seed=1, max_steps=2000, warmup_links=0), 1 << 15),
        (dict(n=1, target_links=4, trials=25, seed=4, max_steps=3000, warmup_links=2), 1 << 16),
    ])
    def test_blocks_equal_per_trial_oracle(self, kw, budget, width, monkeypatch):
        """Blocks of trials give the oracle's results exactly, at the module's
        tile widths and at 4 and 8 codes, also when the last block is shorter
        than the others and draws span several chunks; no draw holds more
        than the block budget."""
        params = walker.WalkParams(**kw)
        blocks, sizes = [], []
        run_block, draw = walker._run_block, walker._Streams.draw
        if width:
            monkeypatch.setattr(walker, "_tile_width", lambda rows: width)
        monkeypatch.setattr(walker, "_BLOCK_UNIFORMS", budget)
        monkeypatch.setattr(walker, "_CHUNK_UNIFORMS", 96)
        monkeypatch.setattr(walker, "_run_block", lambda p, trials: blocks.append(
            trials.size) or run_block(p, trials))
        monkeypatch.setattr(walker._Streams, "draw", lambda streams, *args: sizes.append(
            sum(args[3])) or draw(streams, *args))
        assert list(walker.run_trials(params)) == [chunked_trial(params, t)
                                                   for t in range(params.trials)]
        assert sum(blocks) == params.trials
        assert len(blocks) > 1 and blocks[-1] < blocks[0]
        assert max(sizes) <= budget

    @pytest.mark.parametrize("n, warmup", [(2, 0), (3, 20)])
    def test_trials_that_outrun_their_sized_draws(self, n, warmup, monkeypatch):
        """With no margin about half the trials need more rows than the
        first round draws, in the walk and in the preparations."""
        monkeypatch.setattr(walker, "_MARGIN", 0.0)
        params = walker.WalkParams(n=n, target_links=40, trials=40, seed=8,
                                   warmup_links=warmup)
        want = [chunked_trial(params, t) for t in range(params.trials)]
        assert list(walker.run_trials(params)) == want
        goal = params.warmup_links + params.target_links
        longer = [t.steps > walker._walk_rows(n, 0, goal) for t in want]
        assert 5 < sum(longer) < 35
        assert any(t.units > walker._prep_rows(n, t.steps) for t in want)

    @pytest.mark.parametrize("start, goal", [(0, 1), (0, 5), (4, 5), (3, 12), (0, 40), (10, 74)])
    def test_order_one_rows_from_exact_moments(self, start, goal):
        """At order 1, a round holds the exact mean steps from ``start`` to
        ``goal`` plus ``_MARGIN`` exact standard deviations."""
        levels = walk_moments.level_moments(1, goal)
        assert all(m.mean == -8 + 12 * Fraction(3, 2) ** k for k, m in enumerate(levels))
        want = (float(sum(m.mean for m in levels[start:]))
                + walker._MARGIN * math.sqrt(sum(m.var for m in levels[start:])))
        assert want <= walker._walk_rows(1, start, goal) < want * (1 + 1e-12) + 1

    def test_order_one_rows_past_64_levels(self):
        """Past 64 levels only the first 64 are summed: already more steps
        than a round may hold."""
        rows = walker._walk_rows(1, 7, 10_000)
        assert rows == walker._walk_rows(1, 7, 7 + 64) > walker._BLOCK_UNIFORMS

    def test_convergence_to_closed_forms(self):
        params = walker.WalkParams(n=2, target_links=100, trials=1500, seed=21)
        stats = walker.aggregate(walker.run_trials(params), params)
        for est, target in [(stats.attempts_per_net_link, 6.0),
                            (stats.units_per_link, 13.5),
                            (stats.cs_per_link, 22.5)]:
            assert abs(est.mean - target) < 4 * est.stderr

    def test_max_steps_cap_flags_trials(self):
        params = walker.WalkParams(n=1, target_links=50, trials=5, seed=1,
                                   max_steps=2000, warmup_links=0)
        stats = walker.aggregate(walker.run_trials(params), params)
        assert stats.capped_trials == 5
        assert math.isnan(stats.attempts_per_net_link.mean)
        assert stats.drift.mean < 0

    def test_params_validation(self):
        with pytest.raises(analytics.InputError):
            walker.WalkParams(n=2, target_links=0, trials=1, seed=0)
        with pytest.raises(analytics.InputError):
            walker.WalkParams(n=2, target_links=5, trials=1, seed=0, max_steps=4)
        # the cap must also cover the default 50 warmup links
        with pytest.raises(analytics.InputError, match="warmup_links"):
            walker.WalkParams(n=2, target_links=5, trials=1, seed=0, max_steps=54)
        walker.WalkParams(n=2, target_links=5, trials=1, seed=0, max_steps=55)
        with pytest.raises(analytics.OrderOutOfRangeError, match="^n must be >= 1, got 0$"):
            walker.WalkParams(n=0, target_links=1, trials=1, seed=0)

    @pytest.mark.parametrize("bad", [{"n": 2.5}, {"n": True}, {"seed": -1},
                                     {"seed": 2 ** 64}, {"seed": 1.0}, {"seed": True},
                                     {"target_links": 2.5}, {"trials": True},
                                     {"max_steps": 1e6}, {"warmup_links": 0.0}])
    def test_params_reject_non_integer_order_and_bad_seed(self, bad):
        """A fractional order would walk with step bound 2.5/3.5, True would
        pass as order 1, and a seed outside [0, 2**64) would fail only at the
        first draw, with numpy's OverflowError.  A count or seed that is no
        int would be used as one: target_links=2.5 walks 3 links but divides
        the rates by 2.5, and trials=True runs one trial."""
        params = {**dict(n=2, target_links=5, trials=1, seed=0), **bad}
        (name,) = bad
        error = analytics.OrderOutOfRangeError if name == "n" else analytics.InputError
        with pytest.raises(error, match=f"^{name} must be an int"):
            walker.WalkParams(**params)

    def test_aggregate_rejects_no_trials(self):
        params = walker.WalkParams(n=2, target_links=5, trials=1, seed=0)
        with pytest.raises(ValueError, match="empty list"):
            walker.aggregate(walker.TrialColumns(0), params)


class TestAggregate:
    """The column ``aggregate`` against the per-trial oracle: the same float64
    divisions and the same sums, so equal to the last digit."""

    @pytest.mark.parametrize("kw, capped", [
        (dict(n=1, target_links=5, trials=300, seed=3, max_steps=200, warmup_links=0), "some"),
        (dict(n=1, target_links=50, trials=20, seed=1, max_steps=2000, warmup_links=0), "all"),
        (dict(n=1, target_links=3, trials=200, seed=6, max_steps=2000), "all"),
        (dict(n=2, target_links=30, trials=300, seed=5), "none"),
        (dict(n=2, target_links=30, trials=300, seed=5, warmup_links=0), "none"),
        (dict(n=2, target_links=100, trials=200, seed=11, max_steps=900), "some"),
        (dict(n=3, target_links=20, trials=150, seed=2 ** 64 - 1), "none"),
        (dict(n=3, target_links=20, trials=150, seed=7, warmup_links=0), "none"),
        (dict(n=2, target_links=10, trials=1, seed=4), "none"),
        (dict(n=1, target_links=5, trials=1, seed=2, max_steps=5, warmup_links=0), "all"),
    ])
    def test_equals_per_trial_oracle(self, kw, capped):
        """``repr`` spells each float's shortest round-trip digits, so equal
        reprs are equal floats, NaN included, and equal int types."""
        params = walker.WalkParams(**kw)
        trials = walker.run_trials(params)
        got = walker.aggregate(trials, params)
        assert repr(got) == repr(per_trial_aggregate(list(trials), params))
        assert got.capped_trials in {"none": [0], "all": [params.trials]}.get(
            capped, range(1, params.trials))
        if params.trials == 1:
            assert got.drift.stderr == 0

    def test_columns(self):
        """One array per field, ``len`` and rows that read them."""
        params = walker.WalkParams(n=2, target_links=10, trials=5000, seed=3)
        trials = walker.run_trials(params)
        assert len(trials) == 5000
        rows = list(trials)
        assert len(rows) == 5000
        for field in walker.TrialColumns.FIELDS:
            column = getattr(trials, field)
            assert column.dtype == (bool if field == "capped" else np.int64)
            assert [getattr(t, field) for t in rows] == column.tolist()
        assert all(type(t.steps) is int and type(t.capped) is bool for t in rows)


class TestWeave:
    def test_scalar_matches_batch(self):
        batch = walker.weave_batch(2, walker.WeaveModel.FULL_CZ_RETRY, 50, seed=7)
        rng = walker.substream(7, 0, 0)
        cs = []
        arms = []
        for _ in range(50):
            r = simulate_weave(2, walker.WeaveModel.FULL_CZ_RETRY, rng)
            cs.append(r.cs_used)
            arms.extend(r.arms_used_per_side)
        assert batch.cs_mean.mean == np.mean(cs)
        assert batch.arms_per_side.mean == np.mean(arms)

    def test_full_retry_cs_mean(self):
        stats = walker.weave_batch(2, walker.WeaveModel.FULL_CZ_RETRY, 200000, seed=3)
        target = float(analytics.weave_cs_per_gate(2))
        assert abs(stats.cs_mean.mean - target) < 3 * stats.cs_mean.stderr

    def test_independent_sides_arm_mean(self):
        stats = walker.weave_batch(2, walker.WeaveModel.INDEPENDENT_SIDES,
                                   200000, seed=3)
        target = float(analytics.free_arms_per_gate_per_chain(2))
        assert abs(stats.arms_per_side.mean - target) < 3 * stats.arms_per_side.stderr

    def test_models_disagree_on_arms(self):
        """The two event models bracket the ambiguity in arm accounting."""
        full = walker.weave_batch(2, walker.WeaveModel.FULL_CZ_RETRY, 100000, seed=5)
        ind = walker.weave_batch(2, walker.WeaveModel.INDEPENDENT_SIDES, 100000, seed=5)
        assert abs(full.arms_per_side.mean - 1.75) < 0.02
        assert abs(ind.arms_per_side.mean - 1.5) < 0.02

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    def test_model_given_by_value(self, model):
        """The value names the same model: a string must not fall through
        to ``independent-sides``."""
        assert (walker.weave_batch(2, model.value, 1000, seed=4)
                == walker.weave_batch(2, model, 1000, seed=4))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="full-retry"):
            walker.weave_batch(2, "full-retry", 10, seed=4)

    def test_weave_model_lives_in_analytics(self):
        assert walker.WeaveModel is analytics.WeaveModel

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("m", [0, -1, 2.5])
    def test_order_out_of_range(self, m, model):
        """No weave succeeds at m = 0, so the batch must refuse the order
        before its first round rather than retry forever."""
        with pytest.raises(analytics.OrderOutOfRangeError) as exc:
            bounded(lambda: walker.weave_batch(m, model, 10, seed=1), timeout=10)
        # the message names the weave order, not the teleport order n
        assert str(exc.value) == (f"m must be >= 1, got {m}" if isinstance(m, int)
                                  else f"m must be an int, got {m}")


def joint_geometric_cs(m, k, top):
    """E[max(a, b)^k] over the weave's two sides' arms a, b <= ``top``, one
    term per pair: P(a, b) = s q^(a-1) s q^(b-1) = m^2/(m+1)^(a+b)."""
    total = sum(m * m * max(a, b) ** k * (m + 1) ** (2 * top - a - b)
                for a in range(1, top + 1) for b in range(1, top + 1))
    return Fraction(total, (m + 1) ** (2 * top))


class TestIndependentSidesCs:
    """The ``independent-sides`` ancillas, which the batch derives from
    per-round counts and each weave's side-0 depth, against their exact
    moments."""

    TOP = 120

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_moments_match_joint_geometric_sum(self, m):
        """Pairs past TOP hold P(max(a, b) > TOP) <= 2 q^TOP, and their terms
        fall by at most ((c+1)/c)^2 q < 0.6 per step of c = max(a, b) > TOP,
        so they add under 5 (TOP+1)^2 q^TOP to each moment."""
        exact = walk_moments.independent_cs_moments(m)
        tail = 5 * (self.TOP + 1) ** 2 * Fraction(1, m + 1) ** self.TOP
        mean = joint_geometric_cs(m, 1, self.TOP)
        second = joint_geometric_cs(m, 2, self.TOP)
        assert 0 < exact.mean - mean < tail
        assert 0 < exact.var + exact.mean ** 2 - second < tail

    @pytest.mark.parametrize("m, mean", [(1, Fraction(8, 3)), (2, Fraction(15, 8)),
                                         (3, Fraction(8, 5))])
    def test_means_match_roadmap_table(self, m, mean):
        assert walk_moments.independent_cs_moments(m).mean == mean

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batch_cs_mean(self, m):
        count = 200_000
        exact = walk_moments.independent_cs_moments(m)
        stats = walker.weave_batch(m, walker.WeaveModel.INDEPENDENT_SIDES, count, seed=12)
        assert abs(stats.cs_mean.mean - float(exact.mean)) <= GATE_Z * math.sqrt(
            exact.var / count)


BATCH_SEEDS = [0, 7, 2 ** 64 - 1]
# (count, doubles the compare reader holds at once; None: the module's own).
# 1001 is no multiple of a 96-double chunk's rows at any draw width, and
# 40,000 spans 2 to 4 of the module's chunks.
BATCH_SIZES = [(1, None), (2, None), (50, None), (1001, 96), (40_000, None)]


class TestBatchDraws:
    """The weave and cluster batches against the whole-array batches they
    replace and against lockstep scalar models, field for field: a draw given
    to another weave or attempt than before moves the standard errors."""

    @pytest.mark.parametrize("count, chunk", BATCH_SIZES)
    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_weave_equals_whole_array_batch(self, seed, m, model, count, chunk,
                                            monkeypatch):
        if chunk:
            monkeypatch.setattr(walker, "_CHUNK_UNIFORMS", chunk)
        assert walker.weave_batch(m, model, count, seed) == whole_weave_batch(
            m, model, count, seed)

    @pytest.mark.parametrize("count, chunk", BATCH_SIZES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_cluster_equals_whole_array_batch(self, seed, n, count, chunk, monkeypatch):
        if chunk:
            monkeypatch.setattr(walker, "_CHUNK_UNIFORMS", chunk)
        assert walker.cluster_batch(n, count, seed) == whole_cluster_batch(n, count, seed)

    def test_cluster_with_no_attempts(self):
        assert walker.cluster_batch(2, 0, 1) == walker.ClusterStats(0, math.inf, math.inf)

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    def test_weave_with_no_weaves(self, model):
        with pytest.raises(ValueError, match="cannot aggregate an empty list"):
            walker.weave_batch(2, model, 0, 1)

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_weave_equals_lockstep_scalar(self, seed, m, model):
        cs, arms = lockstep_weaves(m, model, 50, walker.substream(seed, 0, 0))
        want = walker.WeaveStats(50, exact_mean_stderr(cs), exact_mean_stderr(arms))
        assert walker.weave_batch(m, model, 50, seed) == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_cluster_equals_lockstep_scalar(self, seed, n):
        rng = walker.substream(seed, 0, 0)
        attempts = [simulate_cluster_attach(n, rng) for _ in range(50)]
        net = sum(a.net_links for a in attempts)
        want = (walker.ClusterStats(50, sum(a.units_used for a in attempts) / net,
                                    sum(a.cs_used for a in attempts) / net) if net > 0
                else walker.ClusterStats(50, math.inf, math.inf))
        assert walker.cluster_batch(n, 50, seed) == want


class TestBatchMemory:
    """Traced peak bytes: fixed bytes set by the reader buffer's C =
    ``_CHUNK_UNIFORMS`` doubles, plus bytes per weave.

    Fixed: the buffer's 8-byte doubles (8 C) and the 1-byte compares of two
    slices (2 C), while a slice works on at most C values or indices:
    ``bincount``'s 8-byte copy of them (8 C), and 2-byte packed or 4-byte
    index copies (4 C at m <= 3); 24 C covers these and the small arrays.
    ``full-cz-retry`` adds its table of finished weaves per failure pair,
    2^16 8-byte counts (16 C), and keeps for each weave its two 1-byte
    failure counts, 2 bytes.  ``independent-sides`` keeps each weave's
    1-byte side-0 depth and a 4-byte index of each weave still retrying
    after its first round on a side, a share 1 - s of them, twice while the
    slices' pieces are joined: 1 + 8 (1 - s) bytes, 5 at m = 1.  A cluster
    batch keeps only running sums, so its peak does not grow with the
    count.  Two 2-byte arm counters per weave took 4 bytes, and whole-round
    arrays up to 32 bytes per weave and 8 per cluster attempt."""

    COUNT = 200_000

    @staticmethod
    def peak(fn):
        fn(1000)  # numpy's first-use allocations are not the batch's
        return traced_peak(lambda: fn(TestBatchMemory.COUNT))

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("m", [1, 3])
    def test_weave(self, m, model):
        peak = self.peak(lambda count: walker.weave_batch(m, model, count, seed=1))
        fixed, per_weave = ((24 + 16, 2) if model is walker.WeaveModel.FULL_CZ_RETRY
                            else (24, 1 + 8 / (m + 1)))
        assert peak <= fixed * walker._CHUNK_UNIFORMS + per_weave * self.COUNT

    @pytest.mark.parametrize("scale", [1, 10])
    def test_cluster(self, scale):
        peak = self.peak(lambda count: walker.cluster_batch(2, scale * count, seed=1))
        assert peak <= 24 * walker._CHUNK_UNIFORMS


class TestWalkMemory:
    """Traced peak bytes of ``run_trials`` plus ``aggregate``: a block's
    working set, fixed by the block budget, plus bytes per trial.

    Per trial the columns hold eight 8-byte counts and the 1-byte ``capped``:
    65 bytes.  ``aggregate`` adds the 1-byte mask of finished trials and at
    most two 8-byte temporaries at once: a masked column and its quotient,
    or a quotient and the deviations ``std`` forms from it.  So the peak
    grows by at most 65 + 1 + 16 = 82 bytes per trial, and the slope
    between two trial counts cancels the fixed part.  A list of
    ``TrialResult`` rows took about 400 bytes per trial."""

    FEWER, MORE = 2000, 20_000

    @pytest.mark.parametrize("n", [2, 3])
    def test_bytes_per_trial(self, n):
        def peak(trials):
            params = walker.WalkParams(n=n, target_links=100, trials=trials, seed=1)
            return traced_peak(lambda: walker.aggregate(walker.run_trials(params), params))

        peak(100)  # numpy's first-use allocations are not the walk's
        slope = (peak(self.MORE) - peak(self.FEWER)) / (self.MORE - self.FEWER)
        assert slope <= 65 + 1 + 16


class TestRoundLimit:
    """Past the round limit a 1-byte failure count or side-0 depth could
    wrap, so the batch stops with an internal fault, not a usage error."""

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    def test_batch_stops_before_counters_wrap(self, model, monkeypatch):
        monkeypatch.setattr(walker, "_ROUND_LIMIT", 3)
        with pytest.raises(OverflowError) as exc:
            walker.weave_batch(1, model, 1000, seed=1)
        assert not isinstance(exc.value, analytics.InputError)

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    def test_limit_is_one_past_the_last_round(self, model, monkeypatch):
        """The deepest weave runs max(cs) rounds (on one side, for
        ``independent-sides``), so the batch runs at limit max(cs) + 1 and
        stops at max(cs)."""
        cs, _ = lockstep_weaves(1, model, 200, walker.substream(1, 0, 0))
        monkeypatch.setattr(walker, "_ROUND_LIMIT", max(cs) + 1)
        assert walker.weave_batch(1, model, 200, seed=1).cs_mean.mean == np.mean(cs)
        monkeypatch.setattr(walker, "_ROUND_LIMIT", max(cs))
        with pytest.raises(OverflowError):
            walker.weave_batch(1, model, 200, seed=1)


class TestCluster:
    def test_per_attempt_bounds(self):
        rng = walker.substream(0, 0, 0)
        for _ in range(500):
            att = simulate_cluster_attach(1, rng)
            assert att.units_used == 1
            assert 1 <= att.cs_used <= 3
            assert att.net_links in (-1, 1)

    def test_batch_matches_scalar_model_expectation(self):
        # exact expectations of the documented three-try micro-model
        p = float(analytics.cz_success(2))
        p_any = 1 - (1 - p) ** 3
        e_net = 2 * p_any - 1
        e_cs = p + 2 * p * (1 - p) + 3 * (1 - p) ** 2
        stats = walker.cluster_batch(2, 300000, seed=9)
        assert abs(1 / stats.units_per_net_unit - e_net) < 0.01
        assert abs(stats.cs_per_net_unit - e_cs / e_net) < 0.05
