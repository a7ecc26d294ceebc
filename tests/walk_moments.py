"""Exact moments of the walk and weave models, as Fractions (test helper).

The chain grows from length 0 with a reflecting floor.  A step is forward
with probability p = s^2 (s = n/(n+1)), backward with b = (1 - p)/2 and
neutral otherwise; at length 0 a backward step changes nothing.  Every step
consumes one prepared unit, whose attempts and ancillas do not depend on the
walk, so Wald's identity gives the means of units and ancillas from the
steps, and the variance of a random sum gives their variances.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Moments:
    mean: Fraction
    var: Fraction


def level_moments(n: int, top: int) -> list[Moments]:
    """Per length k < ``top``: the steps T_k that take the chain from k to k+1.

    With E_{-1} = M_{-1} = 0 the floor at 0 needs no case of its own:
    E_k = (1 + b·E_{k-1})/p, and the second moment M_k = E[T_k^2] follows
    from T_k = 1 + (0, T_{k-1} + T_k', or T_k' with probability p, b, 1-p-b).
    """
    p = Fraction(n * n, (n + 1) ** 2)
    b = (1 - p) / 2
    c = 1 - p - b
    mean = second = Fraction(0)
    out = []
    for _ in range(top):
        prev_mean, prev_second = mean, second
        mean = (1 + b * prev_mean) / p
        second = (1 + 2 * (b * (prev_mean + mean) + c * mean)
                  + b * (prev_second + 2 * prev_mean * mean)) / p
        out.append(Moments(mean, second - mean * mean))
    return out


def prep_moments(n: int) -> tuple[Moments, Moments]:
    """Attempts and ancillas of one prepared unit.  Attempts are geometric in
    p; each failed attempt costs 2 ancillas when its first teleportation
    succeeded (probability (s - p)/(1 - p) given failure), 1 otherwise, and
    the successful one costs 2."""
    s = Fraction(n, n + 1)
    p = s * s
    fails = Moments((1 - p) / p, (1 - p) / p ** 2)
    q = (s - p) / (1 - p)
    per_fail = Moments(1 + q, q * (1 - q))
    ancillas = Moments(2 + fails.mean * per_fail.mean,
                       fails.mean * per_fail.var + fails.var * per_fail.mean ** 2)
    return Moments(1 / p, fails.var), ancillas


def segment(n: int, warmup: int, links: int) -> dict[str, Moments]:
    """Per-trial moments of the three per-link estimates ``walk`` prints, for
    the segment from length ``warmup`` to ``warmup + links``: steps, units
    and ancillas, each divided by ``links``."""
    levels = level_moments(n, warmup + links)[warmup:]
    steps = Moments(sum(m.mean for m in levels), sum(m.var for m in levels))
    out = {"attempts_per_net_link": steps}
    # a sum of N i.i.d. terms X, N independent of them: mean E N·E X,
    # variance E N·Var X + Var N·(E X)^2
    for key, per_unit in zip(("units_per_link", "cs_per_link"), prep_moments(n)):
        out[key] = Moments(steps.mean * per_unit.mean,
                           steps.mean * per_unit.var + steps.var * per_unit.mean ** 2)
    return {key: Moments(m.mean / links, m.var / links ** 2) for key, m in out.items()}


def independent_cs_moments(m: int) -> Moments:
    """Ancillas of one ``independent-sides`` weave: cs = max(a, b) of its two
    sides' arms, each geometric with success s = m/(m+1).  With q = 1 - s,
    P(cs > r) = 1 - (1 - q^r)^2 for r >= 0, so E cs = sum_r P(cs > r)
    = 2/s - 1/(1 - q^2) and E cs^2 = sum_r (2r + 1) P(cs > r), summed with
    sum_r (2r + 1) x^r = (1 + x)/(1 - x)^2 at x = q and q^2."""
    q = Fraction(1, m + 1)

    def odd_weights(x):
        return (1 + x) / (1 - x) ** 2

    mean = 2 / (1 - q) - 1 / (1 - q * q)
    second = 2 * odd_weights(q) - odd_weights(q * q)
    return Moments(mean, second - mean * mean)
