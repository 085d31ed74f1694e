"""Direct measurement of Fourier decay.

The circle-factor transform nu_hat(t) is a deterministic trapezoid
quadrature against the equilibrium density (spectrally accurate for the
periodic integrand as long as the grid resolves the frequency); the
solenoid transform mu_hat(xi) is Monte Carlo over samples pushed onto the
attractor, since the invariant measure there has no density.  Power-law
exponents come from a log-log least-squares fit with a noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solenoid import step_many
from .thermo import EquilibriumData, GridFunction, nodes, sample

__all__ = [
    "DecaySeries",
    "nu_hat",
    "mu_hat",
    "decay_exponent",
    "dyadic_frequencies",
]


def dyadic_frequencies(base: float = 100.0, count: int = 11) -> np.ndarray:
    """Default frequency schedule base * 2^j, j = 0..count-1."""
    return base * 2.0 ** np.arange(count)


def nu_hat(
    eq: EquilibriumData,
    t: float,
    phase: GridFunction | None = None,
    amplitude: GridFunction | None = None,
) -> complex:
    """Transform of the factor measure: integral of e^{i t phase} amplitude d nu.

    With the default identity phase and constant-one amplitude the integral
    of e^{i t theta} against the piecewise-linear density is evaluated in
    closed form per cell, so the only error is the density's own
    resolution; frequencies are trustworthy up to about 2 pi m / 8.
    A custom phase or a localized amplitude window falls back to the
    grid-node quadrature.
    """
    rho = eq.density.values
    if phase is not None or amplitude is not None:
        ph = nodes(eq.m) if phase is None else phase.values
        amp = 1.0 if amplitude is None else amplitude.values
        if phase is not None and phase.values.shape != rho.shape:
            raise ValueError("phase grid must match the equilibrium grid")
        if amplitude is not None and amplitude.values.shape != rho.shape:
            raise ValueError("amplitude grid must match the equilibrium grid")
        return complex(np.mean(np.exp(1j * t * ph) * amp * rho))

    m = eq.m
    rho = rho / rho.mean()
    if t == 0.0:
        return complex(1.0)
    h = 1.0 / m
    th = t * h
    if abs(th) > 1e-4:
        i0 = (np.exp(1j * th) - 1.0) / (1j * t)
        i1 = h * np.exp(1j * th) / (1j * t) - (np.exp(1j * th) - 1.0) / (1j * t) ** 2
    else:
        # series in th to avoid cancellation at small phase-per-cell
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

    Draws angular samples from nu, pushes (theta, 0, 0) through depth
    applications of eq.spec's solid-torus map (the angular marginal stays nu
    while the fibers land within 4^-depth of the attractor), and averages
    e^{i xi . p}.  xi is one 3-vector, giving one (value, standard error)
    pair, or a (k, 3) array, giving a list of k pairs.  The samples are
    drawn and pushed once per call and every frequency is reduced from the
    same points, one at a time: a batch row equals the single-vector call
    bit for bit, and identical seeds give bit-identical output.

    Decay along xi is only claimed for directions with a nonzero angular
    component (the unstable cone); purely fiber-directed frequencies probe
    the transverse fractal structure instead.
    """
    if samples < 1_000:
        raise ValueError("samples must be >= 1000")
    if 4.0 ** (-depth) > 1e-9:
        raise ValueError("depth leaves the fiber unresolved: need 4^-depth <= 1e-9")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (3,) or xi.ndim > 2:
        raise ValueError("xi must be a 3-vector or a (k, 3) array")
    if xi.size == 0:
        return []  # no frequencies: nothing to draw or push

    thetas = sample(eq, samples, seed)
    xs = np.zeros(samples)
    ys = np.zeros(samples)
    for _ in range(depth):
        thetas, xs, ys, _ = step_many(eq.spec, thetas, xs, ys)

    results = []
    for row in np.atleast_2d(xi):
        phase = row[0] * thetas + row[1] * xs + row[2] * ys
        vals = np.exp(1j * phase)
        value = complex(vals.mean())
        var = vals.real.var() + vals.imag.var()
        results.append((value, float(np.sqrt(var / samples))))
        del phase, vals  # keep one frequency's temporaries alive at a time
    return results[0] if xi.ndim == 1 else results


@dataclass(frozen=True)
class DecaySeries:
    """Paired (frequency, modulus) samples with the fitted power-law exponent."""

    frequencies: np.ndarray
    moduli: np.ndarray
    exponent: float
    stderr: float
    n_used: int


def decay_exponent(
    series: Sequence[tuple[float, float]],
    point_stderr: Sequence[float] | None = None,
) -> DecaySeries:
    """Least-squares slope of ln modulus against ln frequency.

    Moduli at or below three times their own standard error are censored
    (Monte-Carlo floor) rather than clamped; at least four points must
    survive.  Requires at least eight frequencies spanning two decades.
    """
    freqs = np.array([f for f, _ in series], dtype=float)
    mods = np.array([m for _, m in series], dtype=float)
    if freqs.size < 8:
        raise ValueError("need at least 8 frequencies")
    if np.any(np.diff(freqs) <= 0) or np.any(freqs <= 0):
        raise ValueError("frequencies must be positive and increasing")
    if freqs[-1] / freqs[0] < 100.0:
        raise ValueError("frequencies must span at least two decades")

    keep = mods > 0.0
    if point_stderr is not None:
        errs = np.asarray(point_stderr, dtype=float)
        if errs.shape != mods.shape:
            raise ValueError("point_stderr must match the series length")
        keep &= mods > 3.0 * errs
    if keep.sum() < 4:
        raise ValueError(f"only {int(keep.sum())} points above the noise floor")

    x = np.log(freqs[keep])
    y = np.log(mods[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(keep.sum() - 2, 1)
    slope_err = float(np.sqrt(resid @ resid / dof / ((x - x.mean()) ** 2).sum()))
    return DecaySeries(
        frequencies=freqs,
        moduli=mods,
        exponent=float(slope),
        stderr=slope_err,
        n_used=int(keep.sum()),
    )
