"""Direct measurement of Fourier decay.

The circle-factor transform nu_hat(t) is integrated in closed form per cell
against the piecewise-linear equilibrium density (trustworthy while the grid
resolves the frequency); the solenoid transform mu_hat(xi) is Monte Carlo,
since the invariant measure on the attractor has no density.  mu projects
onto nu along the stable fibers, so a frequency with no fiber component
reads the angular draws from nu as they are; only the others read samples
pushed onto the attractor.
Power-law exponents come from a log-log least-squares fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solenoid import push_forward
from .thermo import EquilibriumData, nodes, sample

__all__ = [
    "DecaySeries",
    "nu_hat",
    "mu_hat",
    "decay_exponent",
    "dyadic_frequencies",
]


# mu_hat averages at least this many samples and pushes those a fiber
# frequency reads until they lie within 4^-depth <= _FIBER_RESOLUTION of the
# attractor; decay_exponent fits at least _MIN_FREQUENCIES frequencies.
_MIN_SAMPLES = 1000
_FIBER_RESOLUTION = 1e-9
_MIN_FREQUENCIES = 8

# nu_hat's closed form divides by (i t)^2, which overflows a double from
# |t| = sqrt(largest double) ~ 1.34e154 on; nu_hat rejects t at or past it.
_MAX_FREQUENCY = float(np.sqrt(np.finfo(float).max))


def dyadic_frequencies(base: float = 100.0, count: int = 11) -> np.ndarray:
    """Default frequency schedule base * 2^j, j = 0..count-1."""
    return base * 2.0 ** np.arange(count)


def nu_hat(eq: EquilibriumData, t: float) -> complex:
    """Transform of the factor measure: integral of e^{i t theta} d nu.

    The integral against the piecewise-linear density is evaluated in
    closed form per cell, so the only error is the density's own
    resolution; frequencies are trustworthy up to about 2 pi m / 8.
    Raises ValueError unless |t| < _MAX_FREQUENCY.
    """
    if not abs(t) < _MAX_FREQUENCY:  # also false for a NaN
        raise ValueError(f"|t| must lie below {_MAX_FREQUENCY:.4g}, got {t!r}")
    m = eq.m
    rho = eq.density.values / eq.density.values.mean()
    if t == 0.0:
        return complex(1.0)
    h = 1.0 / m
    th = t * h
    if abs(th) > 1e-4:
        i0 = (np.exp(1j * th) - 1.0) / (1j * t)
        i1 = h * np.exp(1j * th) / (1j * t) - (np.exp(1j * th) - 1.0) / (1j * t) ** 2
    else:
        # series in th to avoid cancellation at a small angle per cell
        i0 = h * (1.0 + 1j * th / 2.0 - th**2 / 6.0 - 1j * th**3 / 24.0)
        i1 = h * h * (0.5 + 1j * th / 3.0 - th**2 / 8.0 - 1j * th**3 / 30.0)
    drho = np.roll(rho, -1) - rho
    carrier = np.exp(1j * t * nodes(m))
    return complex((carrier * rho).sum() * i0 + (carrier * drho).sum() * i1 / h)


def mu_hat(
    eq: EquilibriumData,
    xi: Sequence[float] | Sequence[Sequence[float]],
    samples: int = 100_000,
    depth: int = 20,
    seed: int = 0,
) -> tuple[complex, float] | list[tuple[complex, float]]:
    """Monte-Carlo transform of the solenoid measure along frequency vectors xi.

    Draws angular samples from nu and averages e^{i xi . p} over them.  mu
    projects onto nu along the stable fibers, so a row of xi whose fiber
    components are zero reduces over the draws themselves.  Only a row with
    a nonzero fiber component reads the draws pushed as (theta, 0, 0)
    through depth applications of eq.spec's solid-torus map, which lands
    them within 4^-depth of the attractor; the push runs only if some row
    has one.  xi is one 3-vector, giving one (value, standard error) pair,
    or a (k, 3) array, giving a list of k pairs.  The samples are drawn once
    per call and every frequency is reduced from them, one at a time: a
    batch row equals the single-vector call bit for bit, and identical
    seeds give bit-identical output.

    Decay along xi is only claimed for directions with a nonzero angular
    component (the unstable cone); purely fiber-directed frequencies probe
    the transverse fractal structure instead.
    """
    if samples < _MIN_SAMPLES:
        raise ValueError(f"samples must be >= {_MIN_SAMPLES}")
    if 4.0 ** (-depth) > _FIBER_RESOLUTION:
        raise ValueError(
            f"depth leaves the fiber unresolved: need 4^-depth <= {_FIBER_RESOLUTION}"
        )
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (3,) or xi.ndim > 2:
        raise ValueError("xi must be a 3-vector or a (k, 3) array")
    if xi.size == 0:
        return []  # no frequencies: nothing to draw

    rows = np.atleast_2d(xi)
    draws = sample(eq, samples, seed)
    reads_fiber = rows[:, 1:].any(axis=1)
    if reads_fiber.any():
        thetas, xs, ys = push_forward(eq.spec, draws, depth)

    results = []
    for row, fiber in zip(rows, reads_fiber):
        if fiber:
            phase = row[0] * thetas
            phase += row[1] * xs
            phase += row[2] * ys
        else:
            phase = row[0] * draws
        vals = 1j * phase
        np.exp(vals, out=vals)  # in place: one complex array per frequency
        value = complex(vals.mean())
        var = vals.real.var() + vals.imag.var()
        results.append((value, float(np.sqrt(var / samples))))
        del phase, vals  # keep one frequency's temporaries alive at a time
    return results[0] if xi.ndim == 1 else results


@dataclass(frozen=True)
class DecaySeries:
    """The fitted power-law exponent of a (frequency, modulus) series."""

    exponent: float
    stderr: float
    n_used: int


def decay_exponent(series: Sequence[tuple[float, float]]) -> DecaySeries:
    """Least-squares slope of ln modulus against ln frequency.

    Zero moduli are dropped; at least four points must remain.  Requires
    at least eight frequencies spanning two decades.
    """
    freqs = np.array([f for f, _ in series], dtype=float)
    mods = np.array([m for _, m in series], dtype=float)
    if freqs.size < _MIN_FREQUENCIES:
        raise ValueError(f"need at least {_MIN_FREQUENCIES} frequencies")
    if np.any(np.diff(freqs) <= 0) or np.any(freqs <= 0):
        raise ValueError("frequencies must be positive and increasing")
    if freqs[-1] / freqs[0] < 100.0:
        raise ValueError("frequencies must span at least two decades")

    keep = mods > 0.0
    if keep.sum() < 4:
        raise ValueError(f"only {int(keep.sum())} points have a positive modulus")

    x = np.log(freqs[keep])
    y = np.log(mods[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(keep.sum() - 2, 1)
    slope_err = float(np.sqrt(resid @ resid / dof / ((x - x.mean()) ** 2).sum()))
    return DecaySeries(exponent=float(slope), stderr=slope_err, n_used=int(keep.sum()))
