"""Monte Carlo walker tests: determinism, distributions, convergence."""

import math
import os
import sys
import threading
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

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


def usable_cpus(monkeypatch, count):
    """Let the walker see ``count`` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


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


def chunked_trial(params, trial):
    """One trial in 4096-row chunks of its two substreams, one trial at a time."""
    n = params.n
    s = n / (n + 1)
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
        u = rng_step.random((k, 3))
        forward = (u[:, 0] < s) & (u[:, 1] < s)
        back = ~forward & (u[:, 2] < 0.5)
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
    return walker.TrialResult(
        steps=steps, forward=fwd, backward=bwd,
        units=total_units, cs=total_cs,
        measured_steps=steps - warm_steps,
        measured_units=total_units - warm_units,
        measured_cs=total_cs - warm_cs,
        capped=capped)


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


def float_mean_stderr(values):
    """``walker.mean_stderr`` on a float64 copy of ``values``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return walker.Estimate(float(arr[0]), 0.0)
    return walker.Estimate(float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size)))


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
    return walker.WeaveStats(count, float_mean_stderr(cs), float_mean_stderr(arms.ravel()))


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

    @pytest.mark.parametrize("seed, trial", [(5, 3), (2 ** 64 - 1, 2 ** 61 - 1)])
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 4099])
    def test_rekeyed_streams_equal_substream(self, seed, trial, stream, start, monkeypatch):
        """Re-keying one Philox reads the same doubles as a fresh substream,
        also from a word inside a 4-word Philox block and after another
        stream was read; draws are compared chunk by chunk, and a shorter
        row is padded with False."""
        monkeypatch.setattr(walker, "_CHUNK_UNIFORMS", 4)
        rng = walker.substream(seed, trial, stream)
        head = rng.random(start)
        want = rng.random(9)
        streams = walker._Streams(seed)
        streams.draw([trial - 1], 1 - stream, [2], [6], np.array([0.5]))
        assert np.array_equal(streams.seek(trial, stream, start).random(9), want)
        got = streams.draw([trial, trial], stream, [start, 0], [9, 2], np.array([0.5]))[..., 0]
        assert np.array_equal(got[0], want < 0.5)
        assert np.array_equal(got[1], np.r_[np.r_[head, want][:2] < 0.5, [False] * 7])
        bounds = np.array([0.3, 0.7])
        pairs = np.r_[head, want][2 * (start // 2):][:8].reshape(-1, 2)
        got = streams.draw([trial], stream, [start // 2], [len(pairs)], bounds)[0]
        assert np.array_equal(got, pairs < bounds)


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


class TestFlooredWalk:
    def test_floor_closed_form_matches_scalar(self):
        rng = np.random.default_rng(4)
        deltas = rng.integers(-1, 2, size=500)
        length = 3
        expected = []
        for d in deltas:
            length = max(0, length + int(d))
            expected.append(length)
        assert np.array_equal(walker._floored_lengths(3, deltas), expected)


class TestBuildChain:
    def test_scalar_reference_equals_vectorized_trial(self):
        """The chunked trial consumes the same substreams as the scalar loop."""
        params = walker.WalkParams(n=2, target_links=20, trials=1, seed=9,
                                   warmup_links=0)
        got, = walker._run_block(params, np.array([0]))
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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("kw, budget", [
        (dict(n=2, target_links=30, trials=37, seed=5), 1 << 15),
        (dict(n=2, target_links=30, trials=37, seed=5, warmup_links=0), 1 << 14),
        (dict(n=3, target_links=60, trials=13, seed=2 ** 64 - 1, warmup_links=7), 1 << 12),
        (dict(n=5, target_links=40, trials=11, seed=3, warmup_links=0), 1 << 12),
        (dict(n=1, target_links=50, trials=7, seed=1, max_steps=2000, warmup_links=0), 1 << 17),
        (dict(n=1, target_links=4, trials=25, seed=4, max_steps=3000, warmup_links=2), 1 << 17),
    ])
    def test_blocks_equal_per_trial_oracle(self, kw, budget, threads, monkeypatch):
        """Blocks of trials give the oracle's results exactly on any number
        of workers, also when the last block is shorter than the others and
        draws span several chunks."""
        params = walker.WalkParams(**kw, threads=threads)
        blocks = []
        run_block = walker._run_block
        usable_cpus(monkeypatch, 3)
        # each worker holds a share of the budget: the same blocks at any count
        monkeypatch.setattr(walker, "_BLOCK_UNIFORMS", budget * threads)
        monkeypatch.setattr(walker, "_CHUNK_UNIFORMS", 96)
        monkeypatch.setattr(walker, "_run_block", lambda p, trials: blocks.append(
            (trials[0], trials.size)) or run_block(p, trials))
        assert walker.run_trials(params) == [chunked_trial(params, t)
                                             for t in range(params.trials)]
        sizes = [size for _, size in sorted(blocks)]  # workers finish in any order
        assert sum(sizes) == params.trials
        assert len(sizes) > 1 and sizes[-1] < sizes[0]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n, warmup", [(2, 0), (3, 20)])
    def test_trials_that_outrun_their_sized_draws(self, n, warmup, threads, monkeypatch):
        """With no margin about half the trials need more rows than the
        first round draws, in the walk and in the preparations."""
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(walker, "_MARGIN", 0.0)
        params = walker.WalkParams(n=n, target_links=40, trials=40, seed=8,
                                   warmup_links=warmup, threads=threads)
        want = [chunked_trial(params, t) for t in range(params.trials)]
        assert walker.run_trials(params) == want
        goal = params.warmup_links + params.target_links
        longer = [t.steps > walker._walk_rows(n, goal) for t in want]
        assert 5 < sum(longer) < 35
        assert any(t.units > walker._prep_rows(n, t.steps) for t in want)

    @pytest.mark.parametrize("on_worker", [True, False])
    def test_block_error_reaches_caller(self, on_worker, monkeypatch):
        """An exception in a block, on a worker thread or on the calling
        thread, is raised by run_trials after every worker has stopped."""
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(walker, "_BLOCK_UNIFORMS", 1 << 14)
        run_block, caller = walker._run_block, []

        def failing(p, trials):
            if (threading.current_thread() in caller) != on_worker:
                raise RuntimeError("block failed")
            return run_block(p, trials)

        def run():
            caller.append(threading.current_thread())
            return walker.run_trials(walker.WalkParams(n=2, target_links=30, trials=37,
                                                       seed=5, threads=3))

        monkeypatch.setattr(walker, "_run_block", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            bounded(run)
        assert threading.active_count() == before

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        """Eight workers that switch every microsecond still put every block's
        results in its own place, on however many cores the host has."""
        usable_cpus(monkeypatch, 8)
        monkeypatch.setattr(walker, "_BLOCK_UNIFORMS", 1 << 15)
        params = walker.WalkParams(n=2, target_links=30, trials=97, seed=13, threads=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = bounded(lambda: walker.run_trials(params))
        finally:
            sys.setswitchinterval(interval)
        assert got == [chunked_trial(params, t) for t in range(params.trials)]

    @pytest.mark.parametrize("threads, cpus, trials", [
        (8, 3, 37), (2, 3, 37), (None, 3, 37), (8, 1, 37), (None, 2, 37), (8, 3, 2), (8, 3, 1)])
    def test_workers_capped_by_threads_cpus_and_blocks(self, threads, cpus, trials,
                                                       monkeypatch):
        """The calling thread plus one started thread per further worker:
        never more workers than threads, usable CPUs or blocks."""
        usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(walker, "_BLOCK_UNIFORMS", 1 << 14)
        blocks, starts = [], []
        run_block, start = walker._run_block, threading.Thread.start
        monkeypatch.setattr(walker, "_run_block",
                            lambda p, t: blocks.append(t.size) or run_block(p, t))
        monkeypatch.setattr(threading.Thread, "start", lambda t: starts.append(t) or start(t))
        params = walker.WalkParams(n=2, target_links=30, trials=trials, seed=5, threads=threads)
        walker.run_trials(params)
        assert len(starts) + 1 == min(threads or cpus, cpus, len(blocks))
        assert (trials == 1) == (len(blocks) == 1)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("kw", [dict(n=2, target_links=30, trials=37, seed=5),
                                    dict(n=3, target_links=2000, trials=5, seed=6)])
    def test_workers_share_one_budget(self, kw, threads, monkeypatch):
        """Each worker's draws hold at most its share of the uniforms, also
        when a single trial needs several rounds."""
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(walker, "_BLOCK_UNIFORMS", 1 << 14)
        params = walker.WalkParams(**kw, threads=threads)
        want = walker.run_trials(replace(params, threads=1))
        sizes, draw = [], walker._Streams.draw

        def recording(streams, *args):
            out = draw(streams, *args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(walker._Streams, "draw", recording)
        assert walker.run_trials(params) == want
        assert max(sizes) <= (1 << 14) // threads

    def test_thread_count_does_not_change_results(self):
        base = dict(n=2, target_links=30, trials=24, seed=5)
        one, four = (walker.WalkParams(**base, threads=t) for t in (1, 4))
        assert (walker.aggregate(walker.run_trials(one), one)
                == walker.aggregate(walker.run_trials(four), four))

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
        for threads in (0, -1):
            with pytest.raises(analytics.InputError, match="threads"):
                walker.WalkParams(n=2, target_links=5, trials=1, seed=0, threads=threads)
        with pytest.raises(analytics.OrderOutOfRangeError, match="^n must be >= 1$"):
            walker.WalkParams(n=0, target_links=1, trials=1, seed=0)

    @pytest.mark.parametrize("bad", [{"n": 2.5}, {"n": True}, {"seed": -1},
                                     {"seed": 2 ** 64}, {"seed": 1.0}])
    def test_params_reject_non_integer_order_and_bad_seed(self, bad):
        """A fractional order would walk with step bound 2.5/3.5, True would
        pass as order 1, and a seed outside [0, 2**64) would fail only at the
        first draw, with numpy's OverflowError."""
        params = {**dict(n=2, target_links=5, trials=1, seed=0), **bad}
        error = analytics.OrderOutOfRangeError if "n" in bad else analytics.InputError
        with pytest.raises(error, match="n must be an int" if "n" in bad else "seed"):
            walker.WalkParams(**params)

    def test_aggregate_rejects_no_trials(self):
        params = walker.WalkParams(n=2, target_links=5, trials=1, seed=0)
        with pytest.raises(ValueError, match="empty list"):
            walker.aggregate([], params)


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
    @pytest.mark.parametrize("m", [0, -1, 2.5])
    def test_order_out_of_range(self, m, model):
        """No weave succeeds at m = 0, so the batch must refuse the order
        before its first round rather than retry forever."""
        with pytest.raises(analytics.OrderOutOfRangeError):
            bounded(lambda: walker.weave_batch(m, model, 10, seed=1), timeout=10)


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
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_weave_equals_lockstep_scalar(self, seed, m, model):
        cs, arms = lockstep_weaves(m, model, 50, walker.substream(seed, 0, 0))
        want = walker.WeaveStats(50, float_mean_stderr(cs), float_mean_stderr(arms))
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
    """Traced peak bytes per weave or attempt at 200,000 of them.  A weave
    holds 2-byte arm and round counters, a slice of the index of weaves still
    retrying and one round's 1-byte compares; the standard error over the
    2 x 200,000 arm counts then makes numpy's 8-byte deviation array, 16 bytes
    per weave.  Float64 uniforms and int64 counters took 56 to 76 bytes per
    weave and 27 per cluster attempt."""

    COUNT = 200_000

    @pytest.mark.parametrize("model", list(walker.WeaveModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("m", [1, 3])
    def test_weave(self, m, model):
        peak = traced_peak(lambda: walker.weave_batch(m, model, self.COUNT, seed=1))
        assert peak <= 32 * self.COUNT

    def test_cluster(self):
        peak = traced_peak(lambda: walker.cluster_batch(2, self.COUNT, seed=1))
        assert peak <= 8 * self.COUNT


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
