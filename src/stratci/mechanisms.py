"""Sensitivity computation and the Gaussian mechanism."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import StratumDesign, ValidationError, _design_facts, memoised
from .randomness import RandomStream, standard_normals


class MechanismOutput(NamedTuple):
    """A private release together with the noise variance that produced it."""

    value: float
    noise_variance: float


def _noise_scale(sensitivity: float, rho: float) -> tuple[float, float]:
    """The noise variance sensitivity^2 / (2 rho) and its square root, once both inputs are checked."""
    if not sensitivity > 0.0:
        raise ValidationError(f"sensitivity must be positive, got {sensitivity}")
    if not rho > 0.0:
        raise ValidationError(f"rho must be positive, got {rho}")
    v = sensitivity * sensitivity / (2.0 * rho)
    return v, v**0.5


def _not_finite(rho: float) -> ValidationError:
    """The error of a release whose noise variance overflowed."""
    return ValidationError(f"rho {rho!r} is too small: the noisy release is not finite")


def gaussian_releases(
    normals: Sequence[float], true_values: Sequence[float], scale: tuple[float, float], rho: float
) -> list[float]:
    """Release each true_value + N(0, sensitivity^2 / (2 rho)), given ``scale = _noise_scale(sensitivity, rho)``.

    Value i scales the standard normal ``normals[i]``, which must be a fresh
    draw of a stream no other release reads (the first draw of its own
    stream, from ``randomness.standard_normals`` or ``child_normals``).  All
    values share one scale, which a caller releasing at a fixed design and
    budget computes once.  Each release satisfies rho-zCDP for a
    sensitivity-``sensitivity`` query under the adjacency the sensitivity
    was computed for.  A zero noise variance releases the true values
    exactly, as floats.
    """
    v, sd = scale
    values = list(map(float, true_values)) if v == 0.0 else [x + sd * z for x, z in zip(true_values, normals)]
    if not all(map(math.isfinite, values)):  # the variance overflowed
        raise _not_finite(rho)
    return values


def gaussian_mechanism(
    stream: RandomStream, true_value: float, sensitivity: float, rho: float
) -> MechanismOutput:
    """Release true_value + N(0, sensitivity^2 / (2 rho)) from the stream's first draw."""
    scale = _noise_scale(sensitivity, rho)
    (value,) = gaussian_releases(standard_normals(stream.base_seed, (stream.stream_id,)), (true_value,), scale, rho)
    return MechanismOutput(value, scale[0])


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivities of the stratified estimator under substitute-one adjacency.

    Computed from the public design only (weights and sample sizes), never
    from observed counts, so the report itself is releasable without privacy
    cost.  The per-stratum constants C_h it maximises over are the design
    record's ``constants``.
    """

    proportion: float  # max_h w_h / n_h
    variance: float    # max_h (C_h / n_h)(1 - 1/n_h), C_h = w_h^2 ((N_h-n_h)/N_h) / (n_h-1)


def sensitivities(design: Sequence[StratumDesign]) -> SensitivityReport:
    """Sensitivity of the overall proportion and of its variance estimate.

    Substituting one record within stratum h moves p_hat by at most w_h/n_h,
    and moves the variance estimate by at most (C_h/n_h)(1 - 1/n_h) where
    C_h scales the p_hat_h(1-p_hat_h) term.  A :class:`~stratci.core.Design`
    keeps its report, so every call on it returns the same object.
    """
    return memoised(_sensitivities, design)


def _sensitivities(design: Sequence[StratumDesign]) -> SensitivityReport:
    facts = memoised(_design_facts, design)
    delta_v = max([(C / n) * (1.0 - delta) for C, n, delta in zip(facts.constants, facts.sizes, facts.deltas)])
    return SensitivityReport(max(facts.shares), delta_v)
