"""Perturbed doubling map on the circle.

Builds the coefficient lattice (centers 1/(2^K-1), radii 8^-K), the
bump-sum perturbation g supported on the thickened lattice, and the
degree-2 covering map f(x) = 2x + g(x) mod 1.  Periodic points sitting
on the lattice centers carry prescribed unstable Lyapunov exponents
e^{beta_N}; the betas are kept as exact rationals so the prescription
can be reported and checked without floating-point loss.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
import mpmath
import numpy as np

__all__ = [
    "PerturbationSpec",
    "LatticeReport",
    "PeriodicityError",
    "BUMP_KINDS",
    "coefficient_table",
    "linear_spec",
    "bump_chi",
    "g_eval",
    "f_eval",
    "circle_dist",
    "periodic_theta",
    "lyapunov_periodic",
    "lyapunov_target",
    "verify_lattice",
]


class PeriodicityError(Exception):
    """A point claimed periodic failed its orbit-closure residual check."""


# ---------------------------------------------------------------------------
# bump profiles
# ---------------------------------------------------------------------------

def _exp_step(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C-infinity increasing step, 0 for t<=0 and 1 for t>=1, and its derivative."""
    t = np.clip(t, 0.0, 1.0)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0.0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1.0
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    deriv = np.zeros_like(t)
    inner = pos & neg
    ti, ai, bi = t[inner], a[inner], b[inner]
    deriv[inner] = (ai / ti**2 * bi - ai * (-bi / (1.0 - ti) ** 2)) / (ai + bi) ** 2
    return a / (a + b), deriv


def _poly_step(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quintic smoothstep, C^2 at both ends, and its derivative."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t), 30.0 * t**2 * (1.0 - t) ** 2


_STEPS = {"exp": _exp_step, "smoothstep": _poly_step}

BUMP_KINDS = tuple(sorted(_STEPS))

# sup |chi'| per profile, used in the C^1-norm budget check; values are
# grid suprema rounded up (the exact sup is not available in closed form)
_SUP_CHI_PRIME = {"exp": 2.749, "smoothstep": 2.461}


def _bump_theta(u: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Plateau bump: 1 on [-1/4,1/4], supported in [-1/2,1/2]. Returns (theta, theta')."""
    u = np.asarray(u, dtype=float)
    theta, dstep = _STEPS[kind](2.0 - 4.0 * np.abs(u))
    return theta, dstep * (-4.0) * np.sign(u)


def bump_chi(u, kind: str = "exp"):
    """Profile chi(u) = u * theta(u) and its derivative.

    chi(0) = 0 and chi'(0) = 1, so each lattice bump alpha_N 8^-N chi(8^N(x - c_N))
    vanishes at its center with slope exactly alpha_N.
    """
    if kind not in _STEPS:
        raise ValueError(f"unknown bump kind {kind!r}; expected one of {BUMP_KINDS}")
    scalar = np.ndim(u) == 0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    theta, dtheta = _bump_theta(u_arr, kind)
    chi = u_arr * theta
    dchi = theta + u_arr * dtheta
    if scalar:
        return float(chi[0]), float(dchi[0])
    return chi, dchi


# ---------------------------------------------------------------------------
# coefficient table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Truncated coefficient family defining g and hence f = 2x + g.

    betas[i] is the exact rational with denominator 10^(N^2) for N = i + 2;
    alphas[i] is the matching real coefficient, evaluated at high precision
    and rounded to a double.  n_max = 1 encodes the unperturbed doubling map.
    """

    n_max: int
    betas: tuple[Fraction, ...]
    alphas: tuple[float, ...]
    bump_kind: str = "exp"

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.bump_kind not in _STEPS:
            raise ValueError(f"unknown bump kind {self.bump_kind!r}")
        if len(self.betas) != max(self.n_max - 1, 0) or len(self.alphas) != len(self.betas):
            raise ValueError("betas/alphas must hold entries for N = 2..n_max")
        budget = 0.0
        for i, (beta, alpha) in enumerate(zip(self.betas, self.alphas)):
            n = i + 2
            if (beta * 10 ** (n * n)).denominator != 1:
                raise ValueError(f"beta_{n} is not a multiple of 10^-{n*n}")
            if not Fraction(-37, 100) < beta < Fraction(-36, 100):
                raise ValueError(f"beta_{n} = {beta} outside (-0.37, -0.36)")
            if abs(alpha) > n * 10.0 ** (-n * n + 1):
                raise ValueError(f"alpha_{n} = {alpha} violates |alpha_N| <= N 10^(1-N^2)")
            budget += abs(alpha) * 8.0**n * _SUP_CHI_PRIME[self.bump_kind]
        if budget >= 1.0:
            raise ValueError(f"C^1 budget sum |alpha_N| 8^N sup|chi'| = {budget} >= 1")

    def to_json(self) -> str:
        doc = {
            "n_max": self.n_max,
            "betas": [
                {"num": int(beta * 10 ** ((i + 2) ** 2)), "den_exp": (i + 2) ** 2}
                for i, beta in enumerate(self.betas)
            ],
            "alphas": [repr(a) for a in self.alphas],
            "bump_kind": self.bump_kind,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PerturbationSpec":
        doc = json.loads(text)
        betas = tuple(
            Fraction(entry["num"], 10 ** entry["den_exp"]) for entry in doc["betas"]
        )
        alphas = tuple(float(a) for a in doc["alphas"])
        return cls(doc["n_max"], betas, alphas, doc["bump_kind"])


def coefficient_table(n_max: int, bump_kind: str = "exp") -> PerturbationSpec:
    """Build the coefficient family for orders N = 2..n_max.

    beta_N = floor(10^(N^2) lnln2) / 10^(N^2) held exactly; alpha_N =
    2 (2^-N exp(N e^{beta_N}) - 1) evaluated with at least 50 significant
    digits before rounding.  n_max = 1 returns the empty table (linear map).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    betas: list[Fraction] = []
    alphas: list[float] = []
    with mpmath.workdps(max(60, n_max * n_max + 25)):
        lnln2 = mpmath.log(mpmath.log(2))
        for n in range(2, n_max + 1):
            den = 10 ** (n * n)
            num = int(mpmath.floor(lnln2 * den))
            beta = Fraction(num, den)
            beta_mp = mpmath.mpf(num) / den
            alpha = 2 * (mpmath.mpf(2) ** (-n) * mpmath.exp(n * mpmath.exp(beta_mp)) - 1)
            betas.append(beta)
            alphas.append(float(alpha))
    return PerturbationSpec(n_max, tuple(betas), tuple(alphas), bump_kind)


def linear_spec() -> PerturbationSpec:
    """The unperturbed doubling map (g identically zero)."""
    return PerturbationSpec(1, (), ())


def lyapunov_target(spec: PerturbationSpec, N: int) -> float:
    """Prescribed exponent e^{beta_N}, evaluated from the exact rational."""
    if not 2 <= N <= spec.n_max:
        raise ValueError(f"N must be in 2..{spec.n_max}")
    beta = spec.betas[N - 2]
    with mpmath.workdps(60):
        return float(mpmath.exp(mpmath.mpf(beta.numerator) / beta.denominator))


# ---------------------------------------------------------------------------
# map evaluation
# ---------------------------------------------------------------------------

def _mod1(x):
    """x mod 1 in [0, 1]: the same double as NumPy's x % 1.0, at about 40% of its cost.

    For a finite double, NumPy's remainder takes an exact fmod and then adds
    1 to a negative result; that sum and this subtraction are each one
    rounding of the real number x - floor(x), so the two agree bit for bit.
    A tiny negative x therefore reduces to exactly 1.0 on both.  NaN and
    +-inf give NaN on both.  Every mod-1 reduction in the package goes here.
    The difference overwrites the floor temporary, never x itself.
    """
    f = np.floor(x)
    return np.subtract(x, f, out=f if np.ndim(f) else None)


def circle_dist(a, b):
    """Distance on R/Z: min(|a-b|, 1-|a-b|) after reduction."""
    d = _mod1(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    d = np.minimum(d, 1.0 - d)
    return float(d) if np.ndim(d) == 0 else d


def g_eval(spec: PerturbationSpec, x):
    """Perturbation g and g' at x (scalar or array), x taken mod 1.

    g(x) = sum_N alpha_N 8^-N chi(8^N (x - 1/(2^N-1))); the supports for
    distinct N are disjoint so at most one term is active at any point.
    """
    scalar = np.ndim(x) == 0
    xv = _mod1(np.atleast_1d(np.asarray(x, dtype=float)))
    g = np.zeros_like(xv)
    gp = np.zeros_like(xv)
    for i, alpha in enumerate(spec.alphas):
        n = i + 2
        scale = 8.0**n
        u = scale * (xv - 1.0 / (2.0**n - 1.0))
        live = np.abs(u) < 0.5
        if not np.any(live):
            continue
        chi, dchi = bump_chi(u[live], spec.bump_kind)
        g[live] += alpha / scale * chi
        gp[live] += alpha * dchi
    if scalar:
        return float(g[0]), float(gp[0])
    return g, gp


def f_eval(spec: PerturbationSpec, x):
    """Circle map value f(x) = (2x + g(x)) mod 1 and derivative f'(x) = 2 + g'(x)."""
    scalar = np.ndim(x) == 0
    xv = _mod1(np.atleast_1d(np.asarray(x, dtype=float)))
    g, gp = g_eval(spec, xv)
    fx = _mod1(2.0 * xv + g)
    fp = 2.0 + gp
    if scalar:
        return float(fx[0]), float(fp[0])
    return fx, fp


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

# Orbit-closure tolerance of periodic_theta, lyapunov_periodic and
# solenoid.periodic_orbit: a residual at or above it raises.
_PERIODIC_TOL = 1e-12

# The longest period whose lattice point 1/(2^N - 1) is a double's periodic
# point: from N = 53 on, the nearest double's orbit misses it (by less than
# _PERIODIC_TOL, so no walk would notice) or, from 54 on, falls onto 0.
_MAX_PERIOD = 52


def _lattice_point(N: int) -> float:
    """The lattice point 1/(2^N - 1) of period N, 0 at N = 1; ValueError past _MAX_PERIOD."""
    if N > _MAX_PERIOD:
        raise ValueError(f"N must be at most {_MAX_PERIOD}: 1/(2^N - 1) needs more than a double")
    return 0.0 if N == 1 else 1.0 / (2.0**N - 1.0)


def _periodic_walk(spec: PerturbationSpec, theta: float, N: int) -> tuple[float, float]:
    """N steps of f from theta mod 1: the sum of ln f' along them and the closure residual.

    Raises PeriodicityError if f^N fails to return within _PERIODIC_TOL,
    which would signal either a broken coefficient table or precision loss.
    """
    start = y = _mod1(float(theta))
    total = 0.0
    for _ in range(N):
        y, fp = f_eval(spec, y)
        total += np.log(fp)
    residual = circle_dist(y, start)
    if residual >= _PERIODIC_TOL:
        raise PeriodicityError(f"f^{N} moves {theta!r} by {residual:.3e} >= {_PERIODIC_TOL:.1e}")
    return total, residual


def periodic_theta(spec: PerturbationSpec, N: int) -> tuple[float, float]:
    """Lattice point 1/(2^N - 1), 2 <= N <= _MAX_PERIOD, and its residual (see _periodic_walk)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    theta = _lattice_point(N)
    return theta, _periodic_walk(spec, theta, N)[1]


def lyapunov_periodic(spec: PerturbationSpec, theta: float, N: int) -> float:
    """Orbit-averaged log-derivative (1/N) sum ln f'(f^k theta) along an N-periodic orbit."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _periodic_walk(spec, theta, N)[0] / N


# ---------------------------------------------------------------------------
# exact lattice verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeReport:
    """Outcome of the exact-rational lattice checks."""

    k_max: int
    radius_base: int
    intervals_checked: int
    pairs_checked: int
    exclusions_checked: int
    disjoint_ok: bool
    exclusions_ok: bool
    first_violation: str | None

    @property
    def ok(self) -> bool:
        return self.disjoint_ok and self.exclusions_ok


def _interval(K: int, radius_base: int) -> tuple[Fraction, Fraction]:
    c = Fraction(1, 2**K - 1)
    r = Fraction(1, radius_base**K)
    return c - r, c + r


def verify_lattice(k_max: int, radius_base: int = 8) -> LatticeReport:
    """Exact-rational check of lattice geometry up to order k_max.

    Verifies (i) the thickened-lattice intervals for K = 2..k_max are
    pairwise disjoint, and (ii) every forward-orbit point 2^k/(2^N - 1),
    2 <= N <= k_max, 1 <= k <= N-1, avoids the *entire* thickened lattice
    (all orders, not just those up to k_max).  radius_base is exposed so a
    mutated radius (e.g. 2^-K) can be fed in as a negative control.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if radius_base < 2:
        raise ValueError("radius_base must be >= 2")

    first_violation: str | None = None
    intervals = [(K, *_interval(K, radius_base)) for K in range(2, k_max + 1)]

    pairs = 0
    disjoint_ok = True
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            pairs += 1
            ki, lo_i, hi_i = intervals[i]
            kj, lo_j, hi_j = intervals[j]
            if not (hi_j < lo_i or hi_i < lo_j):
                disjoint_ok = False
                if first_violation is None:
                    first_violation = f"intervals K={ki} and K={kj} overlap"

    # Exclusion points are all > 2^(1-k_max); intervals of high enough order
    # sit entirely below that, so finitely many orders cover the full lattice.
    min_point = Fraction(2, 2**k_max - 1)
    deep = []
    K = 2
    while True:
        lo, hi = _interval(K, radius_base)
        if hi < min_point:
            break
        deep.append((K, lo, hi))
        K += 1

    exclusions = 0
    exclusions_ok = True
    for N in range(2, k_max + 1):
        den = 2**N - 1
        for k in range(1, N):
            exclusions += 1
            p = Fraction(2**k, den)
            for K, lo, hi in deep:
                if lo <= p <= hi:
                    exclusions_ok = False
                    if first_violation is None:
                        first_violation = (
                            f"2^{k}/(2^{N}-1) lies in the order-{K} interval"
                        )
                    break

    return LatticeReport(
        k_max=k_max,
        radius_base=radius_base,
        intervals_checked=len(intervals),
        pairs_checked=pairs,
        exclusions_checked=exclusions,
        disjoint_ok=disjoint_ok,
        exclusions_ok=exclusions_ok,
        first_violation=first_violation,
    )
