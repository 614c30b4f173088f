"""Symmetric eigensolving (LAPACK through numpy, the cyclic Jacobi solver its tested reference),
Gershgorin discs, chromatic bounds from eigenvalues, and closed forms: λ1 of cycle powers, and
λ(G) with λ(Gᵐ) of an OR power Gᵐ = G[Gᵐ⁻¹] from the base G alone (`_lex_spectra`).  The split
A(Gⁿ) = A ⊗ J + I ⊗ A(Gⁿ⁻¹), the λ1 window and `gct-split` read it at m = n − 1,
`graph_spectrum(g, n)` of a regular base at m = n."""

import math
from collections import namedtuple

from .errors import ChromacodeError, UsageError, check_guard
from .coloring import _cycle_scheme
from .orpower import PowerGraph, check_power_guard, or_power, or_power_degree

DENSE_GUARD_DEFAULT = 10_000
DISTINCT_TOL = 1e-6
JACOBI_TOL = 1e-10


# -- eigensolver --------------------------------------------------------------


def _symmetric_array(matrix):
    """A float copy of matrix, refused unless it is square and symmetric to
    within atol=1e-8 (an exactly symmetric one passes on one equality test)."""
    import numpy as np
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise UsageError("matrix must be square")
    if not (np.array_equal(a, a.T) or np.allclose(a, a.T, atol=1e-8)):
        raise UsageError("matrix must be symmetric")
    return a


def _eigvalsh(matrix):
    """Eigenvalues of a symmetric matrix, descending, by LAPACK.

    The symmetry check matters: eigvalsh reads only one triangle, so an
    asymmetric input would otherwise return a silently wrong spectrum.
    """
    import numpy as np
    return np.linalg.eigvalsh(_symmetric_array(matrix))[::-1]


def jacobi_eigenvalues(matrix, max_sweeps=60):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    The hand-written reference that tests check LAPACK against; no library
    path calls it.  Sweeps 2x2 rotations over all off-diagonal positions until
    the off-diagonal Frobenius mass is below JACOBI_TOL * ||M||_F, and raises
    ChromacodeError if that has not happened after max_sweeps sweeps.
    """
    import numpy as np
    a = _symmetric_array(matrix)
    n = a.shape[0]
    scale = np.linalg.norm(a)
    if n > 1 and scale > 0:
        for sweep in range(max_sweeps + 1):
            off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
            if off <= JACOBI_TOL * scale:
                break
            if sweep == max_sweeps:
                raise ChromacodeError(
                    f"Jacobi did not converge in {max_sweeps} sweeps: "
                    f"off-diagonal norm {off:.3e} > {JACOBI_TOL * scale:.3e}"
                )
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if abs(apq) <= 1e-30 * scale:
                        continue
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                    if theta == 0.0:
                        t = 1.0
                    else:
                        t = math.copysign(1.0, theta) / (
                            abs(theta) + math.sqrt(theta * theta + 1.0)
                        )
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    rp, rq = a[p, :].copy(), a[q, :].copy()
                    a[p, :] = c * rp - s * rq
                    a[q, :] = s * rp + c * rq
                    cp, cq = a[:, p].copy(), a[:, q].copy()
                    a[:, p] = c * cp - s * cq
                    a[:, q] = s * cp + c * cq
    diag = np.diag(a).copy()
    return diag[np.argsort(diag)[::-1]]


class Spectrum(namedtuple("Spectrum", "values")):
    """Eigenvalues sorted descending, with clustering into distinct values."""

    __slots__ = ()

    @property
    def lambda_1(self):
        return self.values[0]

    @property
    def lambda_min(self):
        return self.values[-1]

    def distinct(self):
        return tuple(v for v, _ in self.multiplicities())

    def multiplicities(self):
        """(value, count) of each cluster of values within DISTINCT_TOL."""
        out = []
        for v in self.values:
            if out and abs(out[-1][0] - v) <= DISTINCT_TOL:
                out[-1][1] += 1
            else:
                out.append([v, 1])
        return [(v, m) for v, m in out]


def graph_spectrum(g, n=1, guard=None):
    """Spectrum of Gⁿ as plain floats, of (G, n) as `_read_power` reads g and n: on a regular base
    `_lex_spectra`'s closed form, its Vⁿ values under the power guard, the dense guard on the V x V
    matrix solved; else LAPACK's, of g at n = 1 and of or_power(g, n) past it, under the dense guard."""
    base, m = _read_power(g, n)
    if len(set(base.degrees())) == 1:
        check_guard("matrix dimension", base.vertex_count, guard, DENSE_GUARD_DEFAULT)
        return Spectrum(tuple(map(float, _lex_spectra(base, m, guard=guard)[1])))
    gn = g if n == 1 else or_power(g, n, guard=guard)
    check_guard("matrix dimension", gn.vertex_count, guard, DENSE_GUARD_DEFAULT)
    return Spectrum(tuple(_eigvalsh(gn.adjacency_matrix()).tolist()))


def _read_power(g, n=1):
    """(G, m·n) of an OR power g = Gᵐ, as (Gᵐ)ⁿ is G^{mn} in the same tuple order; else (g, n)."""
    while isinstance(g, PowerGraph):
        g, n = g.base, g.tuple_len * n
    return g, n


def _lex_spectra(g, m, guard=None):
    """λ(G) and λ(Gᵐ), descending, of the OR power Gᵐ = G[Gᵐ⁻¹], from G alone.  On a d-regular
    base λ(G^{k+1}) is `_lex_step` of λ(G) and λ(G^k) (Schwenk 1974), its top value the integer
    degree; else λ(Gᵐ) is eigvalsh's of or_power(g, m, guard) ([0.0] at m = 0, λ(G) at m = 1);
    the power guard on Gᵐ (G at m = 0) is checked before any eigensolve."""
    check_power_guard(g.vertex_count, max(m, 1), guard)
    lam_g = _eigvalsh(g.adjacency_matrix()).tolist()
    if len(set(g.degrees())) > 1:
        if m < 2:
            return lam_g, [0.0] if m == 0 else lam_g
        return lam_g, _eigvalsh(or_power(g, m, guard=guard).adjacency_matrix()).tolist()
    lam_g[0] = g.degree(0)
    lam = [0]
    for _ in range(m):
        lam = _lex_step(lam_g, lam)
    return lam_g, lam


def _lex_step(lam_g, lam_h):
    """λ(G[H]), descending, from λ(G) of a regular G, its top value the degree, and λ(H) of a
    regular H, its top value the degree: λ_i(G)·|H| + d(H) for each i, with λ_j(H), j >= 2, each
    |G| times."""
    size = len(lam_h)
    return sorted([x * size + lam_h[0] for x in lam_g] + lam_h[1:] * len(lam_g), reverse=True)


# -- Gershgorin ---------------------------------------------------------------


class GershgorinIntervals(
    namedtuple("GershgorinIntervals", "mode intervals envelope scalar_envelope", defaults=(None,))
):
    """Gershgorin enclosures of one `mode`: `intervals` holds (lo, hi) pairs and `envelope` their
    (lo, hi) hull; `scalar_envelope`, block mode only, is the scalar-GCT-centered hull."""

    __slots__ = ()

    def contains(self, value, tol=1e-9):
        return any(lo - tol <= value <= hi + tol for lo, hi in self.intervals)


def _row_discs(a):
    """Centers and radii of the scalar Gershgorin discs of a matrix, or of
    each matrix in a stack: the diagonal, and the off-diagonal |row| sums.
    Overwrites a with |a|, so callers pass a private copy."""
    import numpy as np
    c = np.diagonal(a, axis1=-2, axis2=-1).copy()
    return c, np.abs(a, out=a).sum(axis=-1) - np.abs(c)


def gershgorin(matrix, mode="scalar", block_size=None):
    """Gershgorin interval enclosures of a symmetric matrix (UsageError
    otherwise).

    scalar: one interval per row, centered at the diagonal entry with radius
    the off-diagonal absolute row sum.  block (`block_size` a positive int
    dividing the dimension): for each diagonal block, one interval per block
    eigenvalue with radius the sum of 2-norms of the off-diagonal blocks in
    that block row; scalar_envelope replaces the block
    eigenvalues by the scalar-GCT range of the diagonal block, which is the
    loose outer interval the block form is usually quoted with.  Both modes
    work on one float copy of the input.  Block mode takes every block's
    2-norm, as sqrt(λ_max(A_kt^T A_kt)), and every diagonal block's spectrum
    in one stacked eigvalsh each, so it also holds one stack of Gram matrices
    A_kt^T A_kt the size of the input matrix.  (np.linalg.norm(A_kt, 2) gives
    5.000000000000001 for the 5x5 all-ones block, which moves the exact
    envelope of A_f1^2 off (-18, 18).)
    """
    import numpy as np
    a = _symmetric_array(matrix)
    n = a.shape[0]
    if mode == "scalar":
        c, r = _row_discs(a)
        lo, hi = (c - r).tolist(), (c + r).tolist()
        return GershgorinIntervals("scalar", tuple(zip(lo, hi)), (min(lo), max(hi)))
    if mode == "block":
        if not isinstance(block_size, int) or block_size < 1 or n % block_size:
            raise UsageError("block mode needs a block size dividing the dimension")
        b = block_size
        nb = n // b
        blocks = a.reshape(nb, b, nb, b).swapaxes(1, 2)  # blocks[k, t] = A_kt
        gram = blocks.swapaxes(2, 3) @ blocks  # A_kt^T A_kt
        norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
        np.fill_diagonal(norms, 0.0)
        # built-in sum over t ascending (compensated on Python >= 3.12), as
        # the one-block reference adds them
        radius = np.array([[sum(row)] for row in norms.tolist()])
        diag = blocks[np.arange(nb), np.arange(nb)]
        lam = np.linalg.eigvalsh(diag)[:, ::-1]
        lo, hi = (lam - radius).ravel().tolist(), (lam + radius).ravel().tolist()
        c, r = _row_discs(diag)
        scalar_lo = (c - r).min(axis=1, keepdims=True) - radius
        scalar_hi = (c + r).max(axis=1, keepdims=True) + radius
        env = (float(scalar_lo.min()), float(scalar_hi.max()))
        return GershgorinIntervals("block", tuple(zip(lo, hi)), (min(lo), max(hi)), env)
    raise UsageError(f"unknown Gershgorin mode {mode!r}")


# -- closed forms -------------------------------------------------------------


def cycle_power_largest_eig(V, n):
    """λ1 of C_V^n: C_V^n is regular, so λ1 is its degree 2(V^n − 1)/(V − 1)."""
    if V < 3 or n < 1:
        raise UsageError("need V >= 3 and n >= 1")
    return or_power_degree(2, V, n)


def smallest_eig_lower_bounds(V, E, degrees):
    """Named lower bounds on the smallest adjacency eigenvalue."""
    if V < 1 or len(degrees) != V or sum(degrees) != 2 * E:
        raise UsageError("inconsistent V, E, degree list")
    dmin, dmax = min(degrees), max(degrees)
    return {
        "brigham": brigham_bound(V, E),
        "hong": hong_bound(V),
        "das": 0.0 - math.sqrt(2 * E - (V - 1) * dmin + (dmin - 1) * dmax),
    }


def brigham_bound(V, E):
    """Brigham's lower bound on λ_min of a graph with V vertices and E edges."""
    return 0.0 - math.sqrt(2 * E * (V - 1) / 2)  # 0.0 at E = 0, not -0.0


def hong_bound(V):
    """Hong's lower bound on λ_min of a graph with V vertices."""
    return -math.sqrt(V / 2 * (V + 1) / 2)


# -- split decomposition ------------------------------------------------------


class SplitReport(namedtuple("SplitReport", "lam_gr lam_fc lam_full lam_sums deviations")):
    """Spectra of the split of an OR power, descending, with `deviations` the per-index
    |lam_sums - lam_full|."""

    __slots__ = ()


def split_decomposition(g, n=1, guard=None):
    """Spectra of the split A(Gⁿ) = a_gr + a_fc, n >= 2, of (G, n) as `graph_spectrum` reads it,
    under the power guard on Gⁿ before any eigensolve: a_gr = I ⊗ A(Gⁿ⁻¹) has λ(Gⁿ⁻¹), each value
    V times; a_fc = A(G) ⊗ J has λ(G)·Vⁿ⁻¹ and Vⁿ − V zeros (both from `_lex_spectra(G, n − 1)`);
    λ(full) is `graph_spectrum`'s, read on a regular base by one more `_lex_step` from λ(Gⁿ⁻¹).
    With an eigen-sum report pairing sorted λ(a_gr) + sorted λ(a_fc) against sorted λ(full)."""
    import numpy as np
    base, m = _read_power(g, n)
    if m < 2:
        raise UsageError("split needs n >= 2")
    check_power_guard(base.vertex_count, m, guard)
    lam_g, lam_h = _lex_spectra(base, m - 1, guard=guard)
    regular = len(set(base.degrees())) == 1
    lam_full = np.array(_lex_step(lam_g, lam_h) if regular else graph_spectrum(g, n, guard=guard).values, dtype=float)
    lam_gr = np.repeat(np.array(lam_h, dtype=float), base.vertex_count)
    cross = np.array(lam_g, dtype=float) * len(lam_h)
    lam_fc = np.sort(np.concatenate([cross, np.zeros(len(lam_gr) - len(cross))]))[::-1]
    sums = lam_gr + lam_fc
    return SplitReport(*(tuple(a.tolist()) for a in (lam_gr, lam_fc, lam_full, sums, np.abs(sums - lam_full))))


# -- chromatic bounds ---------------------------------------------------------


class BoundReport(namedtuple("BoundReport", "variant lower upper details")):
    """Chromatic bounds of one spectral `variant`, with the `details` dict they were read from."""

    __slots__ = ()


def _wilf_upper(l1):
    """Wilf's χ <= ⌊λ1⌋ + 1, for λ1 or an upper bound on it."""
    return math.floor(l1 + 1e-9) + 1


def lambda1_window(g, n, guard=None):
    """Enclosures of λ1(G^n), read from G and λ(G^{n-1}): the window [d_avg·V^{n-1}, Δ(G^n)]; the
    block GCT's `envelope`, the hull of its discs λ_j(G^{n-1}) ± deg_k(G)·V^{n-1}, and its
    `scalar_envelope` ±Δ(G^n); the refined window [d_avg·V^{n-1}, ⌊λ1(G^{n-1}) + λ1(G)·V^{n-1}⌋ + 1].
    λ1(G^n) is Δ(G^n) on a regular base, else `graph_spectrum`'s.  The power guard holds
    on the largest graph read, G^{n-1} or G^n, and is checked before any eigensolve; `guard` sets
    it, and the dense guard on G^n."""
    if n < 2:
        raise UsageError("lambda1 window needs n >= 2")
    V, degrees = g.vertex_count, g.degrees()
    regular = len(set(degrees)) == 1
    check_power_guard(V, n - 1 if regular else n, guard)
    size = V ** (n - 1)
    lo = 2 * g.edge_count / V * size  # d_avg·V^{n-1}
    lam_g, lam_h = _lex_spectra(g, n - 1, guard=guard)
    top = float(or_power_degree(max(degrees), V, n))
    reach = max(degrees) * size
    return {
        "window": (lo, top),
        "refined": (lo, _wilf_upper(lam_h[0] + lam_g[0] * size)),
        "lambda_1": top if regular else graph_spectrum(g, n, guard=guard).lambda_1,
        "gct": {"envelope": (float(lam_h[-1]) - reach, float(lam_h[0]) + reach), "scalar_envelope": (0.0 - top, top)},
    }


BOUND_VARIANTS = (
    "hoffman-direct",
    "cycle-power",
    "degree",
    "general",
    "lambda1-window",
    "gct-split",
)


def chromatic_bounds_spectral(variant, g=None, n=None, V=None, power=None, guard=None):
    """Hoffman's χ >= 1 − λ1/λ_min and Wilf's χ <= ⌊λ1⌋ + 1 on the λ1 and λ_min, or bounds on
    them (above λ1, below λ_min), of one variant on Gⁿ; a λ_min bound that is not negative gives
    lower 1.  G and n are power's recorded base and exponent when power is given (UsageError
    unless g and n, where given too, are those), else g and n, with n = 1 when omitted.  `guard`
    holds for every power and matrix a variant builds or reads.

    hoffman-direct: the spectrum of Gⁿ, `graph_spectrum(g, n)`.
    cycle-power:    C_V^n: λ1 its degree, λ_min the better of the Brigham and
                    Hong closed forms; upper λ1 + 1.  V comes from G when G is
                    given, and G must be the canonical cycle C_V, V >= 4.
    degree:         λ1 of Gⁿ, read as hoffman-direct's; λ_min the Das bound on
                    Gⁿ's degree list, read from G's; upper d_max + 1.
    general:        λ1(G) + d_max·(V + ... + V^{n-1}); λ_min of Gⁿ.
    gct-split:      λ1(a_gr) + λ1(a_fc) of the split of Gⁿ, n >= 2, from λ(G)
                    and λ(Gⁿ⁻¹); λ_min Hong.
    lambda1-window: λ1 the refined window's low edge, λ_min Hong; upper the
                    window's high edge, Wilf's bound on the split sum.
    None builds Gⁿ on a regular base; cycle-power, gct-split and lambda1-window build no power.
    """
    if variant not in BOUND_VARIANTS:
        raise UsageError(f"unknown bound variant {variant!r}")
    if power is not None:
        if not isinstance(power, PowerGraph):
            raise UsageError("power must be an OR power, a PowerGraph with provenance")
        if n is not None and n != power.tuple_len or g is not None and (g, n) != (power.base, power.tuple_len):
            raise UsageError(f"power must be or_power(g, n) with n = {n}")
        g, n = power.base, power.tuple_len
    n = 1 if n is None else n
    if g is None and (variant != "cycle-power" or V is None):
        raise UsageError(f"{variant} bound needs g or {'V' if variant == 'cycle-power' else 'power'}")
    upper = None
    if variant in ("hoffman-direct", "degree", "general"):
        spec = graph_spectrum(g, n, guard=guard)
    if variant == "hoffman-direct":
        l1, lv = spec.lambda_1, spec.lambda_min
        details = {"lambda_1": l1, "lambda_V": lv}
    elif variant == "cycle-power":
        if g is not None and _cycle_scheme(g) is None:
            raise UsageError("cycle-power bound needs the canonical cycle C_V with V >= 4")
        V = V if g is None else g.vertex_count
        l1 = cycle_power_largest_eig(V, n)
        Vn = V**n
        lv = max(brigham_bound(Vn, Vn * l1 // 2), hong_bound(Vn))
        upper = l1 + 1
        details = {"lambda_1": l1, "lambda_V_bound": lv}
    elif variant == "degree":
        base, degrees = g.degrees(), [0]
        for _ in range(n):  # deg of (v, w) in G[Gᵏ]: deg_G(v)·Vᵏ + deg_{Gᵏ}(w)
            degrees = [d * len(degrees) + e for d in base for e in degrees]
        l1 = spec.lambda_1
        lv = smallest_eig_lower_bounds(len(degrees), sum(degrees) // 2, degrees)["das"]
        upper = max(degrees) + 1
        details = {"lambda_1": l1, "das": lv}
    elif variant == "general":
        V = g.vertex_count
        dmax = max(g.degrees())
        l1 = graph_spectrum(g, guard=guard).lambda_1 + (or_power_degree(dmax, V, n) - dmax)
        lv = spec.lambda_min
        details = {"lambda_1_estimate": l1, "lambda_V": lv}
    elif variant == "gct-split":
        if n < 2:
            raise UsageError("gct-split bound needs n >= 2")
        lam_g, lam_h = _lex_spectra(g, n - 1, guard=guard)
        gr, fc = float(lam_h[0]), float(lam_g[0] * len(lam_h))
        l1, lv = gr + fc, hong_bound(g.vertex_count**n)
        details = {"lambda_1_gr": gr, "lambda_1_fc": fc, "sum": l1}
    else:  # lambda1-window
        details = lambda1_window(g, n, guard=guard)
        (l1, upper), lv = details["refined"], hong_bound(g.vertex_count**n)
    lower = 1.0 - l1 / lv if lv < 0 else 1.0
    return BoundReport(variant, lower, _wilf_upper(l1) if upper is None else upper, details)
