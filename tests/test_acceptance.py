"""Acceptance gate: one test per top-level criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they execute.
"""

import math
import time
from fractions import Fraction

import numpy as np

import walk_moments
from freearm import analytics, cli, fock, statevec as sv, walker

SQ2 = math.sqrt(2)


def verdict(number, name, ok):
    print(f"criterion {number:>2} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_01_analytics_exactness():
    t0 = time.perf_counter()
    link2 = analytics.resources_per_link(2)
    gate22 = analytics.resources_per_gate(2, 2)
    cluster1 = analytics.cluster_resources_per_unit(1)
    ok = (analytics.attempts_per_link(2) == 6
          and analytics.attempts_per_link(3) == Fraction(32, 11)
          and (link2.two_photon_units, link2.cs_states) == (Fraction(27, 2),
                                                           Fraction(45, 2))
          and (gate22.construction_cs, gate22.construction_units,
               gate22.weave_cs) == (Fraction(135, 2), Fraction(81, 2),
                                    Fraction(9, 4))
          and (cluster1.two_photon_units, cluster1.cs_states) == (Fraction(16, 3),
                                                                  Fraction(28, 3))
          and time.perf_counter() - t0 < 1.0)
    verdict(1, "exact closed forms", ok)


def test_02_walk_convergence():
    t0 = time.perf_counter()
    params = walker.WalkParams(n=2, target_links=100, trials=10_000, seed=0)
    stats = walker.aggregate(walker.run_trials(params), params)
    checks = [(stats.attempts_per_net_link, 6.0), (stats.units_per_link, 13.5),
              (stats.cs_per_link, 22.5)]
    ok = all(abs(est.mean - target) <= 0.01 * target
             and abs(est.mean - target) <= 3 * est.stderr
             for est, target in checks)
    ok = ok and stats.capped_trials == 0 and time.perf_counter() - t0 < 30
    verdict(2, "walk convergence at order 2", ok)


def test_03_order_one_divergence():
    t0 = time.perf_counter()
    # the floor at 0 keeps an order-1 chain far below 100 links: every trial
    # runs its 100,000 steps
    params = walker.WalkParams(n=1, target_links=100, warmup_links=0, max_steps=100_000,
                               trials=10, seed=0)
    trials = walker.run_trials(params)
    drift = walker.aggregate(trials, params).drift
    ok = (sum(t.steps for t in trials) == 1_000_000
          and abs(drift.mean - (-0.125)) <= 3 * drift.stderr
          and time.perf_counter() - t0 < 10)
    verdict(3, "order-1 negative drift", ok)


def test_04_weave_resources():
    t0 = time.perf_counter()
    count = 1_000_000
    full = walker.weave_batch(2, walker.WeaveModel.FULL_CZ_RETRY, count, seed=1)
    ind = walker.weave_batch(2, walker.WeaveModel.INDEPENDENT_SIDES, count, seed=1)
    # within 1% and within 5.5 exact standard deviations (the two sides of an
    # independent-sides weave are independent: 2 * count arm samples)
    cs = walk_moments.full_retry_moments(2)[0]
    arms = walk_moments.geometric(Fraction(2, 3))
    ok = (abs(full.cs_mean.mean - 2.25) <= min(0.01 * 2.25, 5.5 * math.sqrt(cs.var / count))
          and abs(ind.arms_per_side.mean - 1.5)
          <= min(0.01 * 1.5, 5.5 * math.sqrt(arms.var / (2 * count)))
          and time.perf_counter() - t0 < 10)
    verdict(4, "weave resource means", ok)


def test_05_fock_success_probabilities():
    t0 = time.perf_counter()
    ok = all(abs(fock.teleport_success_probability(n, 0.6, 0.8j) - n / (n + 1))
             <= 1e-12 for n in (1, 2, 3))
    for n, expected in ((1, 1 / 4), (2, 4 / 9)):
        rep = fock.cz_success_report(n)
        ok = ok and abs(rep["success_probability"] - expected) <= 1e-12
    # the n = 3 enumeration also fits the runtime budget
    rep3 = fock.cz_success_report(3)
    ok = (ok and abs(rep3["success_probability"] - 9 / 16) <= 1e-12
          and time.perf_counter() - t0 < 60)
    verdict(5, "photon-level success probabilities", ok)


def test_06_fock_gate_fidelity():
    ok = True
    qa = (0.6, 0.8j)
    qb = (1 / math.sqrt(3), math.sqrt(2 / 3))
    for n in (1, 2):
        for inputs in ((), (qa, qb)):
            rep = fock.cz_success_report(n, *inputs)
            ok = ok and rep["min_success_fidelity"] >= 1 - 1e-10
    verdict(6, "photon-level gate fidelity", ok)


def test_07_weave_verification():
    sa = sv.bracket_state("p", 1)
    sb = sv.bracket_state("q", 1)
    branches = sv.weave(sa, sb, sv.arm("p", 2), sv.arm("q", 2))
    target = sv.woven_target("p", 2, "q", 2)
    ok = (len(branches) == 4
          and branches.state.fidelity(target).min() >= 1 - 1e-10
          and np.abs(branches.probability - 0.25).max() <= 1e-12)
    verdict(7, "weave branch verification", ok)


def test_08_failure_path():
    cut = sv.disconnect_arm(sv.bracket_state("p", 1), sv.arm("p", 2))
    coeffs = cut.state.schmidt_coefficients([sv.path("p", 1)])
    ok = len(cut) == 2 and np.allclose(coeffs, 1 / SQ2, atol=1e-10)
    data = (0.6, 0.8j)
    chain = sv.build_chain_state(1, data)
    target = sv.data_state("p", 2, *data)
    teleported = sv.bell_teleport(sv.disconnect_arm(chain, sv.arm("p", 2)).state, "p", 1)
    ok = ok and teleported.state.fidelity(target).min() >= 1 - 1e-9
    ok = ok and len(teleported) == 8
    verdict(8, "failure path keeps the chain alive", ok)


def test_09_end_to_end_equivalence():
    t0 = time.perf_counter()
    cases = [(2, 1, 2, 11), (2, 2, 2, 12), (3, 3, 3, 13)]
    ok = True
    for qubits, cphases, rotations, seed in cases:
        prog = sv.random_program(qubits, cphases, rotations,
                                 np.random.default_rng(seed))
        rep = sv.evolve_program(prog, links_per_qubit=4)
        ok = (ok and rep.min_fidelity >= 1 - 1e-9
              and abs(rep.probability_sum - 1) <= 1e-9)
    ok = ok and time.perf_counter() - t0 < 300
    verdict(9, "end-to-end protocol equivalence", ok)


def test_10_determinism_across_threads(tmp_path, capsys):
    args = ["walk", "--n", "2", "--trials", "2000", "--target-links", "100",
            "--seed", "42", "--format", "json"]
    reports = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"t{threads}.json"
        code = cli.main(args + ["--threads", threads, "--output", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    ok = reports[0] == reports[1] == reports[2]
    capsys.readouterr()
    verdict(10, "byte-identical reports across thread counts", ok)


def test_branch_probability_partition():
    """Cross-cutting sanity: enumerated measurement branches partition unity."""
    chain = sv.build_chain_state(1, (1 / SQ2, 1j / SQ2))
    total = sv.disconnect_arm(chain, sv.arm("p", 2)).probability.sum()
    assert abs(total - 1) < 1e-12
    bell = chain.measure((sv.path("p", 1), sv.pol("p", 1)), sv.BELL_BASIS).probability.sum()
    assert abs(bell - 1) < 1e-12
