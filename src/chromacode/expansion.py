"""Neighborhood expansion rates and their spectral bounds for OR powers."""

from collections import namedtuple
from fractions import Fraction

from .errors import UsageError
from .graphs import bits_to_list
from .orpower import or_power_degree
from .spectral import hong_bound


def expansion_rate(g, y):
    """|N(Y)| / |Y| as an exact rational; N(Y) excludes members of Y."""
    members = set(y)
    if not members:
        raise UsageError("Y must be nonempty")
    if any(not 0 <= v < g.vertex_count for v in members):
        raise UsageError("Y contains out-of-range vertices")
    nbhd = 0
    for v in members:
        nbhd |= g.neighbors_bitset(v)
    outside = [u for u in bits_to_list(nbhd) if u not in members]
    return Fraction(len(outside), len(members))


def tanner_lower_bound(degree, total, y_size, lam):
    """d^2 / (Λ^2 + (d^2 - Λ^2)·|Y|/total), Tanner's bound on |N(Y)|/|Y|.

    Tanner's N(Y) counts every vertex with a neighbor in Y, including those
    inside Y; our expansion_rate excludes Y, so a valid lower bound on it is
    this expression minus one (|N(Y) \\ Y| >= |N(Y)| - |Y|).  At degree 0
    (an edgeless graph) no vertex has a neighbor, and the bound is 0.
    """
    if degree == 0:
        return 0.0
    d2 = degree * degree
    lam2 = lam * lam
    return d2 / (lam2 + (d2 - lam2) * y_size / total)


class ExpansionBounds(namedtuple("ExpansionBounds", "family total y_size lower upper lam lam_is_bound")):
    """Expansion-rate bounds of a |Y| = `y_size` subset of the n-fold power,
    `total` = V^n vertices; `lam_is_bound` is True when Λ was substituted by
    a spectral bound."""

    __slots__ = ()


def expansion_bounds(family, V, n, y_size, d=None, lam=None):
    """Spectral expansion bounds for the n-fold OR power.

    The upper bound is the complete-graph rate (V^n - |Y|)/|Y|, the maximum
    any graph achieves.  With d the base's least degree, every vertex of the
    power has at least D = `or_power_degree(d, V, n)` neighbours, at most
    |Y| - 1 of them in Y: `general` takes max(0, D + 1 - |Y|)/|Y| (0 without
    d).  `regular`, which needs d and Λ, takes the larger of that and
    Tanner's bound minus one (the exclusive-neighborhood correction, see
    tanner_lower_bound) at degree D; Tanner's bound holds for regular graphs
    only, and neither dominates.  Λ = |λ_{V^n}| when supplied, else the hong
    magnitude as a conservative stand-in (flagged lam_is_bound); `general`
    reports it but does not use it.
    """
    if n < 1 or y_size < 1:
        raise UsageError("need n >= 1 and |Y| >= 1")
    total = V**n
    if y_size > total:
        raise UsageError("|Y| exceeds the vertex count")
    if family not in ("regular", "general"):
        raise UsageError(f"unknown expansion family {family!r}")
    if family == "regular" and (d is None or lam is None):
        raise UsageError("regular family needs d and Λ")
    lam_is_bound = lam is None
    if lam_is_bound:
        lam = -hong_bound(total)
    least = 0 if d is None else or_power_degree(d, V, n)
    lower = max(0, least + 1 - y_size) / y_size
    if family == "regular":
        lower = max(lower, tanner_lower_bound(least, total, y_size, lam) - 1.0)
    return ExpansionBounds(family, total, y_size, lower, (total - y_size) / y_size, lam, lam_is_bound)
