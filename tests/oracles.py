"""Quadrature oracles for the analysis toolkit's series (needs scipy).

The quadrature routines are the independent oracle the truncated
reciprocal-moment series in ``stratci.analysis`` is checked against, built
before the series and kept free of any series code.  They live with the
tests because nothing at run time calls them, which keeps scipy a test-only
dependency.
"""

from __future__ import annotations

import math

from stratci import ValidationError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Standard-normal mass beyond 40 sigma is ~1e-349, far below every tolerance
# used here, so integration limits are clamped there.
_T_CLAMP = 40.0


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / _SQRT_2PI


def conditional_reciprocal_moments_quadrature(mu: float, sigma: float) -> tuple[float, float]:
    """E(1/X | S) and E(1/X^2 | S) for X ~ N(mu, sigma^2), S = {1 <= X <= 2mu-1}.

    Adaptive Gauss-Kronrod quadrature of the truncated-normal integrands in
    standardized coordinates, normalized by the truncated mass.  Requested
    relative tolerance 1e-13 (hence absolute error well below 1e-12 on these
    sub-unit values).
    """
    if not mu > 1.0:
        raise ValidationError(f"mu must exceed 1, got {mu}")
    if not sigma > 0.0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    from scipy.integrate import quad

    lim = min((mu - 1.0) / sigma, _T_CLAMP)
    mass = math.erf(lim / _SQRT2)
    mean_num, _ = quad(
        lambda t: _phi(t) / (mu + sigma * t), -lim, lim,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    second_num, _ = quad(
        lambda t: _phi(t) / (mu + sigma * t) ** 2, -lim, lim,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return mean_num / mass, second_num / mass


def truncated_even_moment(mu: float, sigma: float, half_width: float, order: int) -> float:
    """E[(X - mu)^(2k) | mu - a <= X <= mu + a] by quadrature.

    Equals sigma^(2k) (2k-1)!! up to a boundary term of size
    O(exp(-a^2 / (2 sigma^2)) a^(2k-1)).
    """
    if not half_width > 0.0:
        raise ValidationError(f"half_width must be positive, got {half_width}")
    if order < 1:
        raise ValidationError(f"order must be a positive integer, got {order}")
    from scipy.integrate import quad

    lim = min(half_width / sigma, _T_CLAMP)
    mass = math.erf(lim / _SQRT2)
    k2 = 2 * order
    num, _ = quad(
        lambda t: (sigma * t) ** k2 * _phi(t), -lim, lim,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return num / mass
