"""Exact closed-form resource formulas for free-arm chain construction and weaving.

Everything here is computed with exact rational arithmetic (``fractions.Fraction``
over arbitrary-precision integers), so the returned values carry no floating-point
uncertainty.  Gate orders are plain positive ints; construction formulas need
order >= 2 (the biased walk has positive drift only there), which is enforced
per operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class InputError(ValueError):
    """A parameter outside the domain an operation accepts.

    Every layer raises a subclass of this for bad input, so the command line
    can tell a usage error from an internal fault.
    """


class OrderOutOfRangeError(InputError):
    """Gate order outside the domain of the requested formula."""


class NonPositiveDriftError(InputError):
    """Construction formulas are undefined when the walk drift p - q <= 0 (order 1)."""


def _check_order(n: int, name: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise OrderOutOfRangeError(f"{name} must be an int, got {n!r}")
    if n < 1:
        raise OrderOutOfRangeError(f"{name} must be >= 1, got {n}")


@dataclass(frozen=True)
class ResourceRates:
    """Average ancilla consumption per net link (or per net cluster unit).

    ``two_photon_units`` counts the primitive entangled photon-pair units
    (four-photon units for the cluster variant); ``cs_states`` counts copies of
    the teleportation ancilla at the order the rates were computed for.
    """

    two_photon_units: Fraction
    cs_states: Fraction

    def __post_init__(self):
        if self.two_photon_units <= 0 or self.cs_states <= 0:
            raise ValueError("resource rates must be strictly positive")


@dataclass(frozen=True)
class GateCost:
    """Average resources per two-qubit gate: chain construction plus one weave."""

    construction_cs: Fraction
    construction_units: Fraction
    weave_cs: Fraction


def ftel_success(n: int, name: str = "n") -> Fraction:
    """Success probability n/(n+1) of a single order-n teleportation; ``name``
    is the order's name in an out-of-range message."""
    _check_order(n, name)
    return Fraction(n, n + 1)


def cz_success(n: int) -> Fraction:
    """Success probability n^2/(n+1)^2 of the order-n conditional-phase gate."""
    _check_order(n)
    return Fraction(n * n, (n + 1) * (n + 1))


def step_back_prob(n: int) -> Fraction:
    """Probability (2n+1)/(2(n+1)^2) that a failed attach removes the last linked photon."""
    _check_order(n)
    return Fraction(2 * n + 1, 2 * (n + 1) * (n + 1))


def attempts_per_link(n: int) -> Fraction:
    """Mean walk steps per net link, 2(n+1)^2/(2n^2-2n-1); defined for n >= 2."""
    _check_order(n)
    denom = 2 * n * n - 2 * n - 1
    if denom <= 0:
        raise NonPositiveDriftError(
            f"walk drift is non-positive at order {n}; chain construction needs n >= 2"
        )
    return Fraction(2 * (n + 1) * (n + 1), denom)


def per_step_units(n: int) -> Fraction:
    """Two-photon units consumed per walk step, (n+1)^2/n^2."""
    _check_order(n)
    return Fraction((n + 1) * (n + 1), n * n)


def per_step_cs(n: int) -> Fraction:
    """Ancilla copies consumed per walk step, (2n+1)(n+1)/n^2."""
    _check_order(n)
    return Fraction((2 * n + 1) * (n + 1), n * n)


def resources_per_link(n: int) -> ResourceRates:
    """Average resources per net chain link: walk steps times per-step costs."""
    r = attempts_per_link(n)
    return ResourceRates(
        two_photon_units=r * per_step_units(n),
        cs_states=r * per_step_cs(n),
    )


def free_arms_per_gate_per_chain(m: int) -> Fraction:
    """Mean links with free arms a chain needs per two-qubit gate, (m+1)/m."""
    _check_order(m, name="m")
    return Fraction(m + 1, m)


def weave_cs_per_gate(m: int) -> Fraction:
    """Mean order-m ancilla copies per weave, (m+1)^2/m^2."""
    _check_order(m, name="m")
    return Fraction((m + 1) * (m + 1), m * m)


def full_retry_arms_per_side(m: int) -> Fraction:
    """Mean free arms per side of a full-CZ-retry weave, (m^2+m+1)/m^2.

    Rounds repeat until both sides succeed (probability s^2, s = m/(m+1)); a
    side burns one arm per failed teleportation, (1-s)/s^2 = (m+1)/m^2 on
    average, plus the arm finally woven in.  This exceeds the (m+1)/m of
    :func:`free_arms_per_gate_per_chain`, where each side retries alone.
    """
    _check_order(m, name="m")
    return Fraction(m * m + m + 1, m * m)


def resources_per_gate(n: int, m: int) -> GateCost:
    """Average resources per two-qubit gate for construction order n, weave order m.

    Construction components are 2(m+1)/m times the per-link rates (two chains,
    (m+1)/m links each); the weave itself costs (m+1)^2/m^2 order-m ancillas.
    """
    _check_order(m, name="m")
    link = resources_per_link(n)
    factor = 2 * free_arms_per_gate_per_chain(m)
    return GateCost(
        construction_cs=factor * link.cs_states,
        construction_units=factor * link.two_photon_units,
        weave_cs=weave_cs_per_gate(m),
    )


def cluster_resources_per_unit(n: int) -> ResourceRates:
    """Cluster-chain variant: resources per net four-photon unit, for n >= 1.

    ``two_photon_units`` here counts four-photon units.
    """
    _check_order(n)
    denom = n * n * (n + 1) * (n + 1) - n
    return ResourceRates(
        two_photon_units=Fraction((n + 1) ** 4, denom),
        cs_states=Fraction((n + 1) * (n + 1) * (n * n + 3 * n + 3), denom),
    )


def to_decimal(x: Fraction, sig: int = 12) -> str:
    """Decimal rendering at ``sig`` significant digits, for display only."""
    return f"{float(x):.{sig}g}"
