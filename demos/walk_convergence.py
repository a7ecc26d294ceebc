"""Monte Carlo chain construction versus the closed-form rates.

Simulates the attach-and-retreat walk for several gate orders and compares
the measured per-link costs to the exact rationals.  Also shows why order 1
cannot build chains this way: the walk drifts backward at -1/8 per step.
"""

import time

from freearm import analytics, walker


def main():
    print(__doc__)

    for n in (2, 3):
        t0 = time.perf_counter()
        params = walker.WalkParams(n=n, target_links=100, trials=2000, seed=0)
        stats = walker.aggregate(walker.run_trials(params), params)
        dt = time.perf_counter() - t0
        targets = analytics.resources_per_link(n)
        print(f"\nn = {n}: 2000 chains of 100 links ({dt:.1f} s)")
        for label, est, exact in [
                ("walk steps / link", stats.attempts_per_net_link,
                 analytics.attempts_per_link(n)),
                ("units / link", stats.units_per_link, targets.two_photon_units),
                ("ancillas / link", stats.cs_per_link, targets.cs_states)]:
            print(f"  {label:<20} {est.mean:8.4f} +- {est.stderr:.4f}"
                  f"   exact {exact}"
                  f" = {float(exact):.4f}")

    print("\nn = 1: the drift p - q = 1/4 - 3/8 is negative, so the chain")
    print("shrinks no matter how long we run.  Ten walks aiming at 100 links,")
    print("capped at 100,000 steps each:")
    params = walker.WalkParams(n=1, target_links=100, warmup_links=0, max_steps=100_000,
                               trials=10, seed=0)
    trials = walker.run_trials(params)
    steps = sum(t.steps for t in trials)
    forward, backward = sum(t.forward for t in trials), sum(t.backward for t in trials)
    drift = walker.aggregate(trials, params).drift
    print(f"  {steps} steps: forward {forward}  backward {backward}  "
          f"neutral {steps - forward - backward}")
    print(f"  drift {drift.mean:+.5f} +- {drift.stderr:.5f}  (expected -0.12500)")

    print("\nweaving two chains into a gate, order m = 2, both event models:")
    for model in walker.WeaveModel:
        stats = walker.weave_batch(2, model, 500_000, seed=0)
        print(f"  {model.value:<18} ancillas {stats.cs_mean.mean:6.4f}"
              f"   arms/side {stats.arms_per_side.mean:6.4f}")
    print("  (the models agree on ancilla cost 2.25 only for the retry model,")
    print("   and on arms/side 1.5 only for the independent model -- the")
    print("   microscopic failure handling is genuinely ambiguous)")


if __name__ == "__main__":
    main()
