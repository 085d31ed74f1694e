"""Solid-torus map over the perturbed doubling map.

F(theta, x, y) = (f(theta), x/4 + cos(2 pi theta)/(4 pi), y/4 + sin(2 pi theta)/(4 pi))
contracts the disk fibers by 1/4 while the angular factor expands, so the
forward images of the solid torus nest down to an attractor.  The fiber
block of the Jacobian is diag(1/4, 1/4), which makes the unstable
derivative equal to f'(theta) and the bunching product f'(theta)/4.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle_map import _PERIODIC_TOL, PeriodicityError, PerturbationSpec, _lattice_point
from .circle_map import circle_dist, f_eval

__all__ = [
    "SolenoidPoint",
    "PeriodicOrbit",
    "step",
    "step_many",
    "push_forward",
    "jacobian",
    "periodic_orbit",
    "bunching_margin",
]

_QUARTER_PI_INV = 1.0 / (4.0 * np.pi)

# Points per push_forward chunk.  A chunk's coordinates and step temporaries
# stay in cache across all its steps; the size is fixed so that the output
# cannot depend on how many threads share the chunks.
_CHUNK = 1 << 16


class SolenoidPoint(NamedTuple):
    theta: float
    x: float
    y: float


@dataclass(frozen=True)
class PeriodicOrbit:
    """points[i + 1] = F(points[i]), closing on points[0]; derivs[i] = f'(points[i].theta)."""

    points: tuple[SolenoidPoint, ...]
    derivs: tuple[float, ...]
    unstable_exponent: float


def step(spec: PerturbationSpec, p: SolenoidPoint) -> tuple[SolenoidPoint, float]:
    """One application of F; also returns the unstable derivative f'(theta)."""
    theta, x, y, fprime = step_many(spec, p.theta, p.x, p.y)
    return SolenoidPoint(float(theta), float(x), float(y)), float(fprime)


def step_many(spec, thetas, xs, ys):
    """Vectorized F on parallel coordinate arrays: (thetas, xs, ys, fprimes)."""
    ftheta, fprime = f_eval(spec, thetas)
    ang = 2.0 * np.pi * np.asarray(thetas, dtype=float)
    return (
        ftheta,
        0.25 * np.asarray(xs, dtype=float) + _QUARTER_PI_INV * np.cos(ang),
        0.25 * np.asarray(ys, dtype=float) + _QUARTER_PI_INV * np.sin(ang),
        fprime,
    )


def _worker_count() -> int:
    """Threads _thread_map may use: the CPUs this process may run on.

    push_forward's chunks run on this many threads, so patching it governs them.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_map(fn, starts) -> None:
    """Call fn(start) for each start on up to _worker_count() threads.

    The pool is capped at the task count, and a single worker runs the
    tasks inline.  Callers give each task a fixed, disjoint slice of a
    preallocated output (NumPy releases the interpreter lock inside its
    ufuncs), so the result does not depend on the thread count.
    """
    workers = min(_worker_count(), len(starts))
    if workers <= 1:
        list(map(fn, starts))
    else:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            list(pool.map(fn, starts))  # reading every result re-raises a task's error


def push_forward(spec: PerturbationSpec, thetas, depth: int, fiber: bool = True):
    """F^depth of the points (theta, 0, 0), thetas a 1-D array: the image (thetas, xs, ys).

    The points are pushed in fixed chunks of _CHUNK, each chunk through all
    depth steps of step_many while it stays in cache.  The chunks are shared
    out by _thread_map.  Every point sees the same operations whatever its
    chunk or thread, so the output does not depend on the thread count.
    From the solid torus, the fiber distance to the attractor afterwards is
    at most 2 * 4^-depth.  With fiber false only the angles are pushed, by
    f_eval alone, and xs and ys are None: the angular image is the same
    bit for bit, since F's angular part never reads the fiber.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    thetas = np.asarray(thetas, dtype=float)
    out = tuple(np.empty(thetas.size) for _ in range(3 if fiber else 1))

    def push(start: int) -> None:
        chunk = slice(start, start + _CHUNK)
        t, x, y = thetas[chunk], 0.0, 0.0
        for _ in range(depth):
            if fiber:
                t, x, y, _ = step_many(spec, t, x, y)
            else:
                t, _ = f_eval(spec, t)
        for full, part in zip(out, (t, x, y)):  # without the fiber, out holds t alone
            full[chunk] = part

    _thread_map(push, range(0, thetas.size, _CHUNK))
    return out if fiber else (out[0], None, None)


def jacobian(spec: PerturbationSpec, p: SolenoidPoint) -> np.ndarray:
    """3x3 derivative of F at p, row-major in (theta, x, y) order."""
    _, fprime = f_eval(spec, p.theta)
    ang = 2.0 * np.pi * p.theta
    return np.array(
        [
            [fprime, 0.0, 0.0],
            [-0.5 * np.sin(ang), 0.25, 0.0],
            [0.5 * np.cos(ang), 0.0, 0.25],
        ]
    )


def periodic_orbit(spec: PerturbationSpec, N: int) -> PeriodicOrbit:
    """Periodic orbit of F over the angular point 0 (N = 1) or 1/(2^N - 1), N <= 52.

    Over the periodic angular orbit F^N moves the fiber by the contraction
    v -> 4^-N v + c, where c is the fiber part of F^N(theta0, 0, 0), so the
    orbit's fiber point is c / (1 - 4^-N).  The closing walk from there
    records the points and the unstable derivatives, and the exponent is
    the mean of their logs in walk order.  Raises PeriodicityError if the
    walk misses its start by _PERIODIC_TOL or more.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    theta0 = _lattice_point(N)

    c = SolenoidPoint(theta0, 0.0, 0.0)
    for _ in range(N):
        c, _ = step(spec, c)
    denom = 1.0 - 4.0**-N
    p = SolenoidPoint(theta0, c.x / denom, c.y / denom)

    points, derivs = [p], []
    for _ in range(N):
        image, deriv = step(spec, points[-1])
        points.append(image)
        derivs.append(deriv)
    closing = points.pop()
    residual = max(circle_dist(closing.theta, p.theta), abs(closing.x - p.x), abs(closing.y - p.y))
    if residual >= _PERIODIC_TOL:
        raise PeriodicityError(f"orbit of period {N} fails to close: residual {residual:.3e}")
    exponent = sum(np.log(d) for d in derivs) / N
    return PeriodicOrbit(tuple(points), tuple(derivs), exponent)


def bunching_margin(spec: PerturbationSpec, grid_size: int) -> float:
    """sup over a theta grid of f'(theta) * 1/4; below 1 is the bunching condition.

    The stable block of the Jacobian is exactly I/4, so its operator norm is
    1/4 at every point and only f' needs to be scanned.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    thetas = np.arange(grid_size) / grid_size
    _, fprime = f_eval(spec, thetas)
    return float(fprime.max()) * 0.25
