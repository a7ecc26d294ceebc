"""Monte Carlo walker tests: determinism, distributions, convergence."""

import math
from dataclasses import dataclass
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
    """One attempt to add a four-photon unit (see ``walker.cluster_batch``)."""
    p = float(analytics.cz_success(n))
    cs = 0
    for _ in range(3):
        cs += 1
        if rng.random() < p:
            return ClusterAttempt(1, cs, 1)
    return ClusterAttempt(1, cs, -1)


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
    def test_rekeyed_streams_equal_substream(self, seed, trial, stream, start):
        """Re-keying one Philox reads the same doubles as a fresh substream,
        also from a word inside a 4-word Philox block and after another
        stream was read; a shorter row is padded with 1.0."""
        rng = walker.substream(seed, trial, stream)
        head = rng.random(start)
        want = rng.random(9)
        streams = walker._Streams(seed)
        streams.draw([trial - 1], 1 - stream, [2], [6], 1)
        got = streams.draw([trial, trial], stream, [start, 0], [9, 2], 1)[..., 0]
        assert np.array_equal(got[0], want)
        assert np.array_equal(got[1], np.r_[np.r_[head, want][:2], [1.0] * 7])


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
        freq = walker.step_frequencies(n, 200000, seed=13)
        p = float(analytics.cz_success(n))
        q = float(analytics.step_back_prob(n))
        for observed, expected in [(freq.forward, p), (freq.backward, q),
                                   (freq.neutral, q)]:
            rate = observed / freq.steps
            sigma = math.sqrt(expected * (1 - expected) / freq.steps)
            assert abs(rate - expected) < 4 * sigma
        assert freq.forward + freq.backward + freq.neutral == freq.steps

    def test_order_one_drift_negative(self):
        freq = walker.step_frequencies(1, 500000, seed=2)
        assert freq.drift.mean < 0
        assert abs(freq.drift.mean - (-0.125)) < 3 * freq.drift.stderr


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

    @pytest.mark.parametrize("kw, budget", [
        (dict(n=2, target_links=30, trials=37, seed=5), 1 << 15),
        (dict(n=2, target_links=30, trials=37, seed=5, warmup_links=0), 1 << 14),
        (dict(n=3, target_links=60, trials=13, seed=2 ** 64 - 1, warmup_links=7), 1 << 12),
        (dict(n=5, target_links=40, trials=11, seed=3, warmup_links=0), 1 << 12),
        (dict(n=1, target_links=50, trials=7, seed=1, max_steps=2000, warmup_links=0), 1 << 17),
        (dict(n=1, target_links=4, trials=25, seed=4, max_steps=3000, warmup_links=2), 1 << 17),
    ])
    def test_blocks_equal_per_trial_oracle(self, kw, budget, monkeypatch):
        """Blocks of trials give the oracle's results exactly, also when the
        last block is shorter than the others."""
        params = walker.WalkParams(**kw)
        blocks = []
        run_block = walker._run_block
        monkeypatch.setattr(walker, "_BLOCK_UNIFORMS", budget)
        monkeypatch.setattr(walker, "_run_block",
                            lambda p, trials: blocks.append(trials.size) or run_block(p, trials))
        assert walker.run_trials(params) == [chunked_trial(params, t)
                                             for t in range(params.trials)]
        assert sum(blocks) == params.trials
        assert len(blocks) > 1 and blocks[-1] < blocks[0]

    @pytest.mark.parametrize("n, warmup", [(2, 0), (3, 20)])
    def test_trials_that_outrun_their_sized_draws(self, n, warmup, monkeypatch):
        """With no margin about half the trials need more rows than the
        first round draws, in the walk and in the preparations."""
        monkeypatch.setattr(walker, "_MARGIN", 0.0)
        params = walker.WalkParams(n=n, target_links=40, trials=40, seed=8,
                                   warmup_links=warmup)
        want = [chunked_trial(params, t) for t in range(params.trials)]
        assert walker.run_trials(params) == want
        goal = params.warmup_links + params.target_links
        longer = [t.steps > walker._walk_rows(n, goal) for t in want]
        assert 5 < sum(longer) < 35
        assert any(t.units > walker._prep_rows(n, t.steps) for t in want)

    def test_thread_count_does_not_change_results(self):
        base = dict(n=2, target_links=30, trials=24, seed=5)
        one = walker.build_chain(walker.WalkParams(**base, threads=1))
        four = walker.build_chain(walker.WalkParams(**base, threads=4))
        assert one == four

    def test_convergence_to_closed_forms(self):
        params = walker.WalkParams(n=2, target_links=100, trials=1500, seed=21)
        stats = walker.build_chain(params)
        for est, target in [(stats.attempts_per_net_link, 6.0),
                            (stats.units_per_link, 13.5),
                            (stats.cs_per_link, 22.5)]:
            assert abs(est.mean - target) < 4 * est.stderr

    def test_max_steps_cap_flags_trials(self):
        params = walker.WalkParams(n=1, target_links=50, trials=5, seed=1,
                                   max_steps=2000, warmup_links=0)
        stats = walker.build_chain(params)
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
        with pytest.raises(analytics.OrderOutOfRangeError):
            walker.WalkParams(n=0, target_links=1, trials=1, seed=0)


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
