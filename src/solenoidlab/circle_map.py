"""Perturbed doubling map on the circle.

Builds the coefficient lattice (centers 1/(2^K-1), radii 8^-K), the
bump-sum perturbation g supported on the thickened lattice, and the
degree-2 covering map f(x) = 2x + g(x) mod 1.  Periodic points sitting
on the lattice centers carry prescribed unstable Lyapunov exponents
e^{beta_N}; the betas are kept as exact rationals so the prescription
can be reported and checked without floating-point loss.  The lattice
points, the longest period a double holds and the closure tolerance live
here; solenoid.periodic_orbit walks the orbits and measures the exponents.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from operator import itemgetter

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
    "lyapunov_target",
    "verify_lattice",
]


class PeriodicityError(Exception):
    """A point claimed periodic failed its orbit-closure residual check."""


# ---------------------------------------------------------------------------
# bump profiles
# ---------------------------------------------------------------------------

def _exp_step(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C-infinity increasing step, 0 for t<=0 and 1 for t>=1, and its derivative.

    Both exps run over the whole block: exp(-1/0) = exp(-inf) = 0.0 at the
    ends, and the derivative is zeroed outside 0 < t < 1.
    """
    t = np.clip(t, 0.0, 1.0)
    t += 0.0  # a -0.0 becomes +0.0, so -1/t is -inf there, not +inf
    s = 1.0 - t
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b = np.exp(-1.0 / t), np.exp(-1.0 / s)
        deriv = (a / t**2 * b - a * (-b / s**2)) / (a + b) ** 2
    deriv[~((t > 0.0) & (s > 0.0))] = 0.0
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
    vanishes at its center with slope exactly alpha_N.  On the plateau
    |u| <= 1/4 the profile gives theta = 1 and theta' = +-0, so chi = u and
    chi' = 1.0 bit for bit; it runs only on the rim points (and NaNs).
    """
    if kind not in _STEPS:
        raise ValueError(f"unknown bump kind {kind!r}; expected one of {BUMP_KINDS}")
    u = np.asarray(u, dtype=float)
    chi, dchi = u.copy(), np.ones(u.shape)  # both C-ordered, as is flat
    flat = u.reshape(-1)
    plateau = np.abs(flat) <= 0.25
    rim = np.flatnonzero(np.invert(plateau, out=plateau))
    if rim.size:
        ur = flat[rim]
        theta, dtheta = _bump_theta(ur, kind)
        chi.reshape(-1)[rim] = ur * theta
        dchi.reshape(-1)[rim] = theta + ur * dtheta
    return chi[()], dchi[()]


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
        _check_order(self.n_max)
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


# The highest truncation order: |alpha_N| <= N 10^(1-N^2) leaves alpha_18 =
# -1e-323 the last nonzero double, and from N = 19 on alpha_N rounds to -0.0,
# so a longer table adds only terms that g_eval still pays for.
_MAX_ORDER = 18


def _check_order(n_max: int) -> None:
    if not 1 <= n_max <= _MAX_ORDER:
        raise ValueError(f"n_max must be in 1..{_MAX_ORDER}, got {n_max!r}")


# the coefficient tables built so far, by coefficient_table's arguments
_TABLES: dict[tuple, PerturbationSpec] = {}


def coefficient_table(n_max: int, bump_kind: str = "exp") -> PerturbationSpec:
    """Build the coefficient family for orders N = 2..n_max, n_max <= _MAX_ORDER.

    beta_N = floor(10^(N^2) lnln2) / 10^(N^2) held exactly; alpha_N =
    2 (2^-N exp(N e^{beta_N}) - 1) evaluated in decimal arithmetic with
    max(60, N^2 + 25) significant digits, of which the subtraction cancels
    about N^2, before rounding to a double.  lnln2 carries max(60, n_max^2
    + 25) digits, 25 past the last one any floor reads.  n_max = 1 returns
    the empty table (linear map).  Memoized: each (n_max, bump_kind) is
    built once per process, and every call shares the frozen spec.
    """
    key = (type(n_max), n_max, bump_kind)  # 5.0 is no table, even once 5 is built
    if key not in _TABLES:
        _TABLES[key] = _build_table(n_max, bump_kind)
    return _TABLES[key]


def _build_table(n_max: int, bump_kind: str) -> PerturbationSpec:
    _check_order(n_max)
    betas: list[Fraction] = []
    alphas: list[float] = []
    with localcontext() as ctx:
        ctx.prec = max(60, n_max * n_max + 25)
        lnln2 = Decimal(2).ln().ln()
        nums = [
            int(lnln2.scaleb(n * n).to_integral_value(ROUND_FLOOR)) for n in range(2, n_max + 1)
        ]
    for n, num in enumerate(nums, start=2):
        betas.append(Fraction(num, 10 ** (n * n)))
        with localcontext() as ctx:
            ctx.prec = max(60, n * n + 25)
            beta = Decimal(num).scaleb(-n * n)
            alpha = 2 * (Decimal(2) ** -n * (n * beta.exp()).exp() - 1)
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
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(beta.numerator) / beta.denominator).exp())


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
    return np.minimum(d, 1.0 - d)


# g's terms by spec.alphas, one slot per biased exponent below 1/2's.  The
# order-N support lies in the binade [2^-N, 2^(1-N)), because c_N - 2^-N =
# 1/((2^N - 1) 2^N) > 4^-N exceeds its radius 8^-N / 2, so a point's
# exponent names the one order that can reach it.  Slot 1023 - N holds 8^N,
# c_N = 1/(2^N - 1), alpha_N 8^-N and alpha_N, the doubles each term has
# always used; every other slot holds NaN, where no point is live.  A tuple
# of floats hashes in far less time than the spec's Fractions.
_BINADES = 1023
_TERMS: dict[tuple[float, ...], np.ndarray] = {}


def _terms(alphas: tuple[float, ...]) -> np.ndarray:
    terms = _TERMS.get(alphas)
    if terms is None:
        terms = np.full((4, _BINADES), np.nan)
        for n, alpha in enumerate(alphas, start=2):
            scale = 8.0**n
            terms[:, _BINADES - n] = scale, 1.0 / (2.0**n - 1.0), alpha / scale, alpha
        _TERMS[alphas] = terms
    return terms


# The bump profile runs over at most this many live points at a time, so
# its temporaries, about 60 bytes a point, stay small on any input.
_BUMP_BLOCK = 2048


def _bump_blocks(u: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """bump_chi(u, kind), evaluated _BUMP_BLOCK points at a time."""
    if u.size <= _BUMP_BLOCK:
        return bump_chi(u, kind)
    chi, dchi = np.empty_like(u), np.empty_like(u)
    for i in range(0, u.size, _BUMP_BLOCK):
        block = slice(i, i + _BUMP_BLOCK)
        chi[block], dchi[block] = bump_chi(u[block], kind)
    return chi, dchi


def _live_terms(spec: PerturbationSpec, xv: np.ndarray):
    """The live points of xv, a fresh 1-d array in [0, 1] that serves as
    scratch, as a mask, with alpha_N 8^-N chi(u) and alpha_N chi'(u) there;
    None where no point is live."""
    scale, center, coef, alpha = _terms(spec.alphas)
    slot = xv.view(np.int64) >> 52  # the biased exponent; 1/2 and up clip to a NaN slot
    u = center.take(slot, mode="clip")
    np.subtract(xv, u, out=u)
    u *= scale.take(slot, mode="clip", out=xv)
    live = np.abs(u, out=xv) < 0.5
    if not live.any():
        return None
    u, slot = u[live], slot[live]
    chi, dchi = _bump_blocks(u, spec.bump_kind)
    # each term added to 0.0, as it always was, so a -0.0 gives +0.0
    chi *= coef[slot]
    chi += 0.0
    dchi *= alpha[slot]
    dchi += 0.0
    return live, chi, dchi


def g_eval(spec: PerturbationSpec, x):
    """Perturbation g and g' at x, taken mod 1: any shape in, the same shape out.

    A scalar x gives NumPy floats.  g(x) = sum_N alpha_N 8^-N chi(8^N (x - c_N)),
    c_N = 1/(2^N - 1).  The supports for distinct N lie in distinct binades,
    so one pass over the exponents gives each point the one order that can
    reach it; the point is live when u = 8^N (x - c_N) has |u| < 0.5, and
    bump_chi runs once over the live points of every order (in blocks of
    _BUMP_BLOCK points), and the profile only over their rim points.  The
    temporaries are gone before g and g' are allocated.
    """
    x = np.asarray(x, dtype=float)
    found = _live_terms(spec, _mod1(x).reshape(-1)) if spec.alphas else None
    g, gp = np.zeros(x.size), np.zeros(x.size)
    if found is not None:
        live, chi, dchi = found
        g[live], gp[live] = chi, dchi
    return g.reshape(x.shape)[()], gp.reshape(x.shape)[()]


def f_eval(spec: PerturbationSpec, x):
    """Circle map value f(x) = (2x + g(x)) mod 1 and derivative f'(x) = 2 + g'(x)."""
    xv = _mod1(np.asarray(x, dtype=float))
    g, gp = g_eval(spec, xv)
    return _mod1(2.0 * xv + g), 2.0 + gp


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

# Orbit-closure tolerance of solenoid.periodic_orbit: a residual at or above
# it raises.
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
    mutated radius (e.g. 2^-K) can be fed in as a negative control.  Both
    ends of the order-K interval fall strictly as K grows, so one list in
    that order decides (i) from neighbours and (ii) by bisection.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if radius_base < 2:
        raise ValueError("radius_base must be >= 2")

    # For b = radius_base >= 2, c_K - c_(K+1) = 2^K/((2^K - 1)(2^(K+1) - 1))
    # > 2^(-K-1) >= b^-K (1 - 1/b) = r_K - r_(K+1), so lo_K and hi_K both fall
    # strictly with K.  Two intervals then overlap only if two neighbours do,
    # the first overlapping pair is a neighbour pair, and the orders whose
    # interval holds a point p form one run from the least K with lo_K <= p:
    # the largest lo at or below p is the only candidate.  No order past
    # k_max is needed: hi_(k_max) = c_(k_max) + b^-k_max lies below
    # 2/(2^k_max - 1), the smallest exclusion point.  Order K sits at index
    # k_max - K, so lo and hi rise along the list.
    intervals = [_interval(K, radius_base) for K in range(k_max, 1, -1)]
    n = len(intervals)

    first_violation: str | None = None
    disjoint_ok = True
    for K in range(2, k_max):
        lo, hi_next = intervals[k_max - K][0], intervals[k_max - K - 1][1]
        if hi_next >= lo:
            disjoint_ok = False
            first_violation = f"intervals K={K} and K={K + 1} overlap"
            break

    exclusions = 0
    exclusions_ok = True
    for N in range(2, k_max + 1):
        den = 2**N - 1
        for k in range(1, N):
            exclusions += 1
            p = Fraction(2**k, den)
            i = bisect_right(intervals, p, key=itemgetter(0)) - 1
            if i >= 0 and p <= intervals[i][1]:
                exclusions_ok = False
                if first_violation is None:
                    first_violation = f"2^{k}/(2^{N}-1) lies in the order-{k_max - i} interval"

    return LatticeReport(
        k_max=k_max,
        radius_base=radius_base,
        intervals_checked=n,
        pairs_checked=n * (n - 1) // 2,
        exclusions_checked=exclusions,
        disjoint_ok=disjoint_ok,
        exclusions_ok=exclusions_ok,
        first_violation=first_violation,
    )
