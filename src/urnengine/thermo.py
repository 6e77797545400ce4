"""Occupancies, inverse temperatures, and entropy functions for two-level urns.

A reservoir of N balls, n of them at weight 1 and the rest at weight 0, held
at altitude eps, behaves as N independent two-level systems.  Requiring the
population to be thermal fixes the inverse temperature through

    exp(-beta * eps) = n / (N - n),    i.e.  beta = ln(N/n - 1) / eps,

which is negative for inverted populations (n > N/2).  Reduced units
throughout: k_B = 1, temperature T = 1/beta, entropy in nats.

The entropy rate used by the continuum cycle limit is

    s(x, y) = x * f(y) + ln(1 + exp(-x)),      f(x) = 1 / (exp(x) + 1),

the per-system entropy of a two-level population whose gap is x while its
occupancy is held at f(y); s(x) means s(x, x).  The integration constant is
chosen so s -> 0 as x -> +inf; any other choice cancels in all observable
differences.

Every function here is scalar arithmetic on Python floats and loads no numpy;
only the array forms (``occupancy_np`` and the array branch of
``_efficiency``) import it, when first called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _EXPORTS

if TYPE_CHECKING:
    import numpy as np

__all__ = _EXPORTS["thermo"]

# comb() stays exact up to this N; above it Stirling's series avoids bignum blowup
_EXACT_COMB_LIMIT = 10_000
_LN2 = math.log(2.0)


def occupancy(x: float) -> float:
    """Excited fraction f(x) = 1/(exp(x) + 1), stable over the whole real line.

    Accepts +-inf as limits: f(+inf) = 0, f(-inf) = 1; NaN is a domain error.
    """
    if x >= 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    if math.isnan(x):  # NaN fails x >= 0 and lands here
        raise ValueError("occupancy argument must not be NaN")
    return 1.0 / (math.exp(x) + 1.0)


def occupancy_np(x: np.ndarray) -> np.ndarray:
    """Vectorized occupancy with the same branch structure as the scalar form."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    e = np.exp(-x[pos])
    out[pos] = e / (1.0 + e)
    out[~pos] = 1.0 / (np.exp(x[~pos]) + 1.0)
    return out


def _softplus(x: float) -> float:
    """ln(1 + exp(x)) without overflow for large |x|."""
    if x >= 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _entropy(x: float, y: float) -> float:
    # raw float path; analytically >= 0, rounding may leave a ~ulp negative
    raw = x * occupancy(y) + _softplus(-x)
    return raw if raw > 0.0 else 0.0


def entropy_s(x: float, y: float | None = None) -> float:
    """Two-level entropy rate s(x, y) = x*f(y) + ln(1 + exp(-x)).

    ``x`` is the reduced gap (beta*eps) the entropy is evaluated at, ``y`` the
    reduced gap whose equilibrium occupancy the population is held at.  ``y``
    defaults to ``x``, the equilibrium value s(x); s(0) = ln 2 is the maximum
    and s(x) -> 0 as |x| -> inf.
    """
    if y is None:
        y = x
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("entropy arguments must be finite")
    return _entropy(x, y)


def _log1mexp(t: float) -> float:
    """ln(1 - exp(-t)) for t > 0, accurate on both sides of t = ln 2."""
    return math.log(-math.expm1(-t)) if t <= _LN2 else math.log1p(-math.exp(-t))


def _g(t: float) -> float:
    """t*exp(-t)/(1 - exp(-t)) = t/(exp(t) - 1) for t >= 0, with g(0) = 1;
    it underflows to 0 instead of overflowing."""
    if t == 0.0:
        return 1.0
    e = math.exp(-t)
    return t * e / -math.expm1(-t) if e > 0.0 else 0.0


def entropy_equally_spaced(x: float, levels: int) -> float:
    """Gibbs entropy of ``levels`` equally spaced states at reduced gap x.

    s = ln Z + x*<k> with Z = sum_{k=0}^{L-1} exp(-k x), L = ``levels``.  Even
    in x (relabeling k -> L-1-k flips the sign), maximal at x = 0 where it
    equals ln L; reduces to entropy_s(x, x) at L = 2.  Summing the geometric
    series gives the closed forms

        ln Z   = ln(1 - exp(-L x)) - ln(1 - exp(-x))
        x <k>  = g(x) - g(L x),      g(t) = t / (exp(t) - 1),

    so the cost does not grow with L.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if not math.isfinite(x):
        raise ValueError("reduced gap must be finite")
    try:
        n = float(levels)
    except OverflowError:
        raise ValueError("levels too large for a float") from None
    x = abs(x)
    if x == 0.0:
        return math.log(n)
    lx = n * x
    return (_log1mexp(lx) - _log1mexp(x)) + (_g(x) - _g(lx))


def beta_from_occupancy(n: int, N: int, eps: float) -> float:
    """Inverse temperature of a two-level urn with n of N balls excited.

    Thermal occupation requires exp(-beta*eps) = n/(N - n), hence
    beta = ln(N/n - 1)/eps, taken as +-log1p((N - 2k)/k)/eps with
    k = min(n, N - n), so the digits survive near half and full filling.
    """
    if N < 1 or n < 0 or n > N:
        raise ValueError("invalid occupation")
    if n == 0 or n == N:
        raise ValueError("degenerate occupancy (infinite |beta|)")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("altitude must be positive")
    k = min(n, N - n)  # log1p of a non-negative argument keeps every digit
    beta = math.copysign(math.log1p((N - 2 * k) / k) / eps, N - 2 * n)
    if not math.isfinite(beta):  # the quotient overflows at a tiny eps
        raise ValueError("degenerate occupancy (infinite |beta|)")
    return beta


def _stirling_tail(t: float) -> float:
    """ln x! - [(x + 1/2) ln x - x + ln(2 pi)/2] at t = 1/x, for x >= 5,000."""
    t2 = t * t
    return t * (1.0 / 12.0 - t2 * (1.0 / 360.0 - t2 / 1260.0))


def log_degeneracy(N: int, n: int) -> float:
    """ln of the number of ways to excite n out of N distinguishable systems.

    Above ``_EXACT_COMB_LIMIT``, with k = min(n, N - n) and M = N - k, Stirling's
    series gives ln(N!/M!) = k ln N - (M + 1/2) log1p(-k/N) - k + tail(N) - tail(M),
    which, unlike ln N! - ln M!, keeps its digits when k << N."""
    if N < 0 or n < 0 or n > N:
        raise ValueError("invalid occupation")
    if N <= _EXACT_COMB_LIMIT:
        return math.log(math.comb(N, n))
    k = min(n, N - n)
    M = N - k
    try:
        falling = (k * math.log(N) - (M + 0.5) * math.log1p(-k / N) - k
                   + _stirling_tail(1 / N) - _stirling_tail(1 / M))
    except OverflowError:
        raise ValueError("occupation too large for a float") from None
    return falling - math.lgamma(k + 1)


def carnot_efficiency(beta_l: float, beta_h: float) -> float:
    """Upper bound 1 - beta_h/beta_l on engine efficiency, correctly rounded, clamped to 1.

    The clamp covers hot baths at negative temperature (beta_h/beta_l <= 0),
    where the raw ratio exceeds 1 but unity is the physical bound.
    """
    bl, bh = float(beta_l), float(beta_h)
    if bl == 0.0:
        raise ValueError("infinite cold temperature")
    eta = 1.0 - bh / bl  # rounds twice: kept only where it overflows or a beta is infinite
    if math.isfinite(eta) and math.isfinite(bl):
        from fractions import Fraction  # loaded on first call, not at start-up
        eta = float(1 - Fraction(bh) / Fraction(bl))
    return min(1.0, eta)


def _efficiency(work, q_high):
    """eta = W/(-Q_h) where the hot side discharges (Q_h < 0), NaN elsewhere.

    A float Q_h takes plain arithmetic; arrays apply the rule elementwise, and
    NaN divides without raising.  Both branches give the same bits.
    """
    if isinstance(q_high, float):
        return work / -q_high if q_high < 0.0 else math.nan
    import numpy as np
    return np.where(q_high < 0.0, work, np.nan) / -q_high
