"""Direct measurement of Fourier decay.

The circle-factor transform nu_hat(t) is integrated in closed form per cell
against the piecewise-linear equilibrium density (trustworthy while the grid
resolves the frequency); the solenoid transform mu_hat(xi) is Monte Carlo,
since the invariant measure on the attractor has no density.  mu projects
onto nu along the stable fibers, so a frequency with no fiber component
reads the angular draws from nu as they are; only the others read samples
pushed a fixed 20 steps onto the attractor, which resolves the fiber to
2 * 4^-20 ~ 1.8e-12.  mu_hat's elementwise passes (phase, exp, the
variance's deviations) run on a thread pool in fixed chunks of draws, while
every sum runs whole on the calling thread, so no worker count reaches a bit.
Power-law exponents come from a log-log least-squares fit.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .solenoid import push_forward
from .thermo import EquilibriumData, nodes, sample

__all__ = [
    "DecaySeries",
    "nu_hat",
    "nu_hat_limit",
    "mu_hat",
    "decay_exponent",
    "dyadic_frequencies",
]


# mu_hat averages at least this many samples; decay_exponent fits at least
# _MIN_FREQUENCIES frequencies.
_MIN_SAMPLES = 1000
_MIN_FREQUENCIES = 8

# Solid-torus steps that push the samples a fiber frequency reads: from the
# central fiber each step contracts the distance to the attractor by 1/4, so
# 20 steps leave at most 2 * 4^-20 ~ 1.8e-12, far below any Monte-Carlo error.
_FIBER_DEPTH = 20

# nu_hat's closed form divides by (i t)^2, which overflows a double from
# |t| = sqrt(largest double) ~ 1.34e154 on; nu_hat rejects t at or past it.
_MAX_FREQUENCY = float(np.sqrt(np.finfo(float).max))

# mu_hat's elementwise passes run over chunks of this many draws: a chunk's
# bits are the same whichever thread computes it and however many run.
_CHUNK = 1 << 17


def dyadic_frequencies(base: float = 100.0, count: int = 11) -> np.ndarray:
    """Default frequency schedule base * 2^j, j = 0..count-1."""
    return base * 2.0 ** np.arange(count)


def nu_hat_limit(m: int) -> float:
    """The largest frequency nu_hat trusts on an m-node grid, 2 pi m / 8.

    Past it a period spans fewer than 8 cells, and the piecewise-linear
    density no longer resolves what the transform reads.
    """
    return 2.0 * np.pi * m / 8.0


def nu_hat(eq: EquilibriumData, t: float) -> complex:
    """Transform of the factor measure: integral of e^{i t theta} d nu.

    The integral against the piecewise-linear density is evaluated in
    closed form per cell, so the only error is the density's own
    resolution; frequencies are trustworthy up to nu_hat_limit(m).
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


def _workers() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _chunked(n: int) -> Iterator[Callable]:
    """Yield each(pass_), which runs pass_(chunk) on every _CHUNK-long slice
    of range(n) and returns once all have run.

    The slices go to a pool of min(_workers(), chunk count) threads, shut
    down on exit; one worker runs them inline.  A pass must call only NumPy.
    """
    chunks = [slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK)]
    workers = min(_workers(), len(chunks))
    if workers == 1:
        yield lambda pass_: list(map(pass_, chunks))
        return
    # imported here: the module costs about 2 ms, and only mu_hat needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        yield lambda pass_: list(pool.map(pass_, chunks))


def mu_hat(
    eq: EquilibriumData,
    xi: Sequence[float] | Sequence[Sequence[float]],
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[complex, float] | list[tuple[complex, float]]:
    """Monte-Carlo transform of the solenoid measure along frequency vectors xi.

    Draws angular samples from nu and averages e^{i xi . p} over them.  mu
    projects onto nu along the stable fibers, so a row of xi whose fiber
    components are zero reduces over the draws themselves.  Only a row with
    a nonzero fiber component reads the draws pushed as (theta, 0, 0)
    through _FIBER_DEPTH = 20 applications of eq.spec's solid-torus map,
    which lands them within 2 * 4^-20 of the attractor; the push runs only
    if some row has one.  xi is one 3-vector, giving one (value, standard
    error) pair, or a (k, 3) array, giving a list of k pairs.  The samples
    are drawn once per call and every frequency is reduced from them, one
    at a time: a batch row equals the single-vector call bit for bit, and
    identical seeds give bit-identical output.  A fiberless frequency holds
    the draws and one complex array, about 24 bytes per draw: the phase is
    written into that array's imaginary part and the variance is taken in
    place.  The elementwise passes (phase, exp, subtract the mean, square)
    run in fixed chunks of _CHUNK draws on one thread pool per call, one
    thread per core; the mean and the variance's sums run on the calling
    thread over the whole array, so the output does not depend on the
    number of cores.

    Decay along xi is only claimed for directions with a nonzero angular
    component (the unstable cone); purely fiber-directed frequencies probe
    the transverse fractal structure instead.
    """
    if samples < _MIN_SAMPLES:
        raise ValueError(f"samples must be >= {_MIN_SAMPLES}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (3,) or xi.ndim > 2:
        raise ValueError("xi must be a 3-vector or a (k, 3) array")
    if not np.isfinite(xi).all():
        raise ValueError("every entry of xi must be finite")
    if xi.size == 0:
        return []  # no frequencies: nothing to draw

    rows = np.atleast_2d(xi)
    draws = sample(eq, samples, seed)
    reads_fiber = rows[:, 1:].any(axis=1)
    if reads_fiber.any():
        thetas, xs, ys = push_forward(eq.spec, draws, _FIBER_DEPTH)

    # one complex array serves every frequency: its imaginary part takes the
    # phase and its real part 0, the 1j * phase of the textbook form
    vals = np.empty(samples, dtype=complex)
    re, im = vals.real, vals.imag
    results = []

    # the passes each frequency runs on every chunk; they call only NumPy
    def exp_pass(row, fiber):
        def pass_(c):
            chunk = vals[c]
            phase = chunk.imag
            chunk.real.fill(0.0)
            if fiber:
                np.multiply(row[0], thetas[c], out=phase)
                phase += row[1] * xs[c]
                phase += row[2] * ys[c]
            else:
                np.multiply(row[0], draws[c], out=phase)
            phase += 0.0  # 1j * phase has imaginary part 0.0 + phase, so no -0.0
            np.exp(chunk, out=chunk)

        return pass_

    def deviation_pass(mean_re, mean_im):
        def pass_(c):
            for part, mean in ((re[c], mean_re), (im[c], mean_im)):
                part -= mean
                part *= part

        return pass_

    with _chunked(samples) as each:
        for row, fiber in zip(rows, reads_fiber):
            each(exp_pass(row, fiber))
            value = complex(vals.mean())
            # each part's variance as ndarray.var takes it (sum, divide,
            # subtract, square, sum, divide), bit for bit, in place instead of
            # in a temporary; the sums run whole, here, in var's order
            each(deviation_pass(re.sum() / samples, im.sum() / samples))
            var = re.sum() / samples + im.sum() / samples
            results.append((value, float(np.sqrt(var / samples))))
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
    at least eight frequencies spanning two decades and finite,
    non-negative moduli.
    """
    freqs = np.array([f for f, _ in series], dtype=float)
    mods = np.array([m for _, m in series], dtype=float)
    if freqs.size < _MIN_FREQUENCIES:
        raise ValueError(f"need at least {_MIN_FREQUENCIES} frequencies")
    if not (freqs[0] > 0 and np.all(np.diff(freqs) > 0)):  # also false for a NaN
        raise ValueError("frequencies must be positive and increasing")
    if freqs[-1] / freqs[0] < 100.0:
        raise ValueError("frequencies must span at least two decades")

    if not np.all((mods >= 0.0) & (mods < np.inf)):  # also false for a NaN
        raise ValueError("moduli must be finite and non-negative")
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
