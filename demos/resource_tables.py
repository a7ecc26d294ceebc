"""Exact resource accounting for linked-state construction.

Chain construction is a biased random walk: each step attempts to attach a
two-photon unit with an order-n conditional-phase gate (success n^2/(n+1)^2);
half of the failures also knock the previous photon off the chain.  The drift
is positive only for n >= 2, and every long-run rate below is an exact
rational.  Low orders waste ancillas on retries, high orders make each
ancilla itself expensive to view as a resource -- the table shows the
trade-off flattening out quickly.
"""

from fractions import Fraction

from freearm import analytics


def show(title, rows, cols):
    print(f"\n{title}")
    print("  " + "  ".join(f"{c:>16}" for c in cols))
    for row in rows:
        print("  " + "  ".join(f"{v:>16}" for v in row))


def fmt(x):
    return f"{x} = {analytics.to_decimal(x, 6)}"


def main():
    print(__doc__)

    rows = []
    for n in range(2, 7):
        link = analytics.resources_per_link(n)
        rows.append((n, fmt(analytics.attempts_per_link(n)),
                     fmt(link.two_photon_units), fmt(link.cs_states)))
    show("per net chain link", rows, ("n", "walk steps", "2-photon units",
                                      "ancilla states"))

    # A two-qubit gate consumes free-arm links on both chains plus one weave.
    rows = []
    for n, m in [(2, 1), (2, 2), (3, 2), (4, 2)]:
        g = analytics.resources_per_gate(n, m)
        rows.append((f"n={n},m={m}", fmt(g.construction_units),
                     fmt(g.construction_cs), fmt(g.weave_cs)))
    show("per two-qubit gate", rows, ("orders", "units", "construction CS",
                                      "weave CS"))

    # The cluster-chain variant survives at order 1: a unit is only lost
    # after three consecutive gate failures, so the effective drift stays
    # positive even when single gates usually fail.
    rows = []
    for n in range(1, 5):
        c = analytics.cluster_resources_per_unit(n)
        rows.append((n, fmt(c.two_photon_units), fmt(c.cs_states)))
    show("cluster variant, per net four-photon unit", rows,
         ("n", "4-photon units", "ancilla states"))

    total = analytics.resources_per_gate(2, 2)
    grand = total.construction_cs + total.weave_cs
    print(f"\nheadline figure: a gate at n = m = 2 costs "
          f"{grand} = {analytics.to_decimal(grand, 6)} "
          "order-2 ancilla states in total")
    assert grand == Fraction(279, 4)


if __name__ == "__main__":
    main()
