"""Transfer-operator thermodynamics for the circle factor.

Collocation on a uniform periodic grid with piecewise-linear interpolation:
the weighted transfer operator L_psi h(x) = sum over the two inverse
branches of e^{psi(y)} h(y) becomes a sparse matrix with four entries per
row, power iteration on it and its transpose yields the pressure e^P,
the eigenfunction h and the invariant density rho, and the normalized
potential phi = psi - P + ln h - ln h o f closes the loop (L_phi 1 = 1,
L_phi^* nu = nu).  The matrices of one grid differ only in their weights:
the preimages, their cells and the CSR structure are solved once per
(spec, grid) into a cached stencil.  Everything downstream - Gibbs ratios
over cylinders, ball-mass regularity, large-deviation profiles, regular
words, sampling - reads off the resulting EquilibriumData.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .circle_map import PerturbationSpec, _mod1, f_eval
from .symbolic import level_endpoints, preimage_tree
from .symbolic import log_expansion_sums, tree_birkhoff_sums

__all__ = [
    "GridFunction",
    "EquilibriumData",
    "DeviationProfile",
    "SpectralConvergenceError",
    "nodes",
    "ball_mass",
    "mme_potential",
    "srb_potential",
    "transfer_apply",
    "transfer_matrix",
    "solve_equilibrium",
    "measure_cdf",
    "cylinder_levels",
    "gibbs_ratio_stats",
    "upper_regularity_exponent",
    "large_deviation_profile",
    "regular_words",
    "sample",
]


class SpectralConvergenceError(Exception):
    """Power iteration failed to settle, signalling a missing spectral gap."""


# The coarsest collocation grid; every grid is a power of two at least this fine.
_MIN_GRID = 1024


def _grid_ok(m: int) -> bool:
    """m nodes make a collocation grid: a power of two >= _MIN_GRID."""
    return m >= _MIN_GRID and not m & (m - 1)


@dataclass(frozen=True)
class GridFunction:
    """Real function on m uniform circle nodes with wraparound linear interpolation.

    values is read-only.  A view of any array, read-only or not, is copied,
    since its base may still be written; so is a writable array of the
    caller's, which stays writable and cannot change this one.  A read-only
    array that owns its memory is shared, and any other input is converted
    into a new array that only this object holds.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or not _grid_ok(vals.size):
            raise ValueError(f"grid size must be a power of two >= {_MIN_GRID}")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        if vals.base is not None or (vals.flags.writeable and vals is self.values):
            vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def __call__(self, x):
        return _interp_periodic(self.values, np.asarray(x, dtype=float))

    @classmethod
    def constant(cls, c: float, m: int) -> "GridFunction":
        return cls(_frozen(np.full(m, float(c))))


def _frozen(values: np.ndarray) -> np.ndarray:
    """values made read-only, for a caller that hands its array to a GridFunction
    to share rather than copy; values must own its memory, or it is copied."""
    values.setflags(write=False)
    return values


def _cell(x, m: int):
    """Linear stencil of x on m periodic nodes: cell j, its right node j + 1 mod m
    (both int32), and the offset of x within the cell, in [0, 1).

    The floor is taken once.  A tiny negative x reduces mod 1 to exactly 1.0,
    so its floor is m, which wraps to cell 0 with offset 0.  The offset
    overwrites the scaled t, except for a 0-d input, whose t is a scalar.
    """
    t = _mod1(np.asarray(x, dtype=float)) * m
    f = np.floor(t)
    j = f.astype(np.int32)
    j %= m
    return j, (j + 1) % m, np.subtract(t, f, out=t if np.ndim(t) else None)


def _interp_cells(values: np.ndarray, j, right, frac):
    """values interpolated linearly at offset frac between nodes j and right.

    values[j] (1 - frac) + values[right] frac with the same three roundings
    in the same order, accumulated in the gathered values[j] rather than in
    a fresh array per operation.
    """
    out = values[j]
    out *= 1.0 - frac
    out += values[right] * frac
    return out


def _interp_periodic(values: np.ndarray, x):
    return _interp_cells(values, *_cell(x, values.shape[0]))


def nodes(m: int) -> np.ndarray:
    return np.arange(m) / m


def mme_potential(m: int) -> GridFunction:
    """Zero potential: equilibrium state is the measure of maximal entropy."""
    return GridFunction.constant(0.0, m)


def srb_potential(spec: PerturbationSpec, m: int) -> GridFunction:
    """Geometric potential -ln f', whose equilibrium state is the SRB measure."""
    _, fp = f_eval(spec, nodes(m))
    return GridFunction(_frozen(-np.log(fp)))


# ---------------------------------------------------------------------------
# transfer operator
# ---------------------------------------------------------------------------

class _Stencil(NamedTuple):
    """The weight-free part of every transfer matrix on one grid.

    branches[a] holds, for the branch-a preimage y of each node, its cell j,
    the right node j + 1 mod m (both int32), the offset of y in the cell and
    ln f'(y).  Row i of the CSR matrix has four slots, filled in the order
    (j_0, j_0 + 1, j_1, j_1 + 1); indices lists those columns in ascending
    order within each row, as scipy's COO conversion sorted them, and
    indptr = 4 arange(m + 1).  Only in the rows wrap_rows, where a branch-1
    cell ends at node m - 1 so its right node wraps to 0, is the slot order
    not the column order; np.take_along_axis(row, wrap_order[k]) sorts the
    k-th of them.  Every array is read-only.
    """

    branches: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    indices: np.ndarray
    indptr: np.ndarray
    wrap_rows: np.ndarray
    wrap_order: np.ndarray


@functools.lru_cache(maxsize=1)
def _stencil(spec: PerturbationSpec, m: int) -> _Stencil:
    """Both inverse branches of every node and the shared CSR structure.

    Memoized for the last (spec, m), so the transfer matrices of one grid
    share one solve and one structure; the arrays are read-only because
    every caller, and every matrix built on them, shares them.
    """
    y, deriv = preimage_tree(spec, nodes(m), 1)
    branches = []
    for ya, da in zip(_mod1(y), deriv):
        branches.append((*_cell(ya, m), np.log(1.0 / da)))
    # The C^1 budget keeps |g'| < 1, so f' lies in (1, 3): each arc between the
    # two preimages of a node maps onto a full turn, so both arcs are longer
    # than 1/3, and with m >= 1024 the four columns of a row are distinct.  No
    # row ever held a duplicate, and the COO build never summed one.
    cols = np.stack([c for j, right, _, _ in branches for c in (j, right)], axis=1)
    wrap_rows = np.flatnonzero((cols[:, 1:] < cols[:, :-1]).any(axis=1))
    wrap_order = np.argsort(cols[wrap_rows], axis=1)
    cols[wrap_rows] = np.take_along_axis(cols[wrap_rows], wrap_order, axis=1)
    indptr = np.arange(0, 4 * m + 1, 4, dtype=np.int32)
    for arr in [a for branch in branches for a in branch] + [cols, indptr, wrap_rows, wrap_order]:
        arr.setflags(write=False)
    return _Stencil(tuple(branches), cols.ravel(), indptr, wrap_rows, wrap_order)


def transfer_matrix(
    spec: PerturbationSpec, potential: GridFunction, twist: float = 0.0
) -> sp.csr_matrix:
    """Sparse collocation matrix of L_{potential + i twist ln f'}.

    Row i holds, for each inverse branch y of node i, the weight
    e^{potential(y)} (times the oscillatory factor when twist != 0) spread
    over the two grid nodes bracketing y.  The cells, offsets, ln f' and the
    CSR structure come from the grid's cached _stencil; a build computes
    only the 4m weights, and every matrix of one grid shares indices and
    indptr.  That structure is read-only: an in-place structural call such
    as eliminate_zeros() raises ValueError, so take .copy() first.  Rows keep
    explicit zeros wherever a preimage falls on a node (frac == 0).

    Besides its data a build allocates only the weights and their gathers:
    the weights are exponentiated where they were interpolated, and a
    twisted build writes i twist ln f' into the branch's right-node column,
    exponentiates it there and multiplies the weights in before spreading
    the product over both columns.  Those are the bits of w e^{i twist ln f'}:
    the real part 0 only ever meets exact zeros, and exp(0) = 1.
    """
    m = potential.m
    stencil = _stencil(spec, m)
    data = np.empty((m, 4), dtype=complex if twist else float)
    for k, (j, right, frac, log_fp) in enumerate(stencil.branches):
        w = _interp_cells(potential.values, j, right, frac)
        np.exp(w, out=w)
        if twist:
            phase = data[:, 2 * k + 1]
            phase.real = 0.0
            np.multiply(log_fp, twist, out=phase.imag)
            np.exp(phase, out=phase)
            phase *= w
            w = phase
        np.multiply(w, 1.0 - frac, out=data[:, 2 * k])
        np.multiply(w, frac, out=data[:, 2 * k + 1])
    rows = stencil.wrap_rows
    data[rows] = np.take_along_axis(data[rows], stencil.wrap_order, axis=1)
    return sp.csr_matrix((data.ravel(), stencil.indices, stencil.indptr), shape=(m, m))


def transfer_apply(
    spec: PerturbationSpec, potential: GridFunction, h: GridFunction
) -> GridFunction:
    """L_potential h on the shared grid: sum over the two preimages of each node."""
    if potential.m != h.m:
        raise ValueError("potential and h must share the grid size")
    out = np.zeros(potential.m)
    for j, right, frac, _ in _stencil(spec, potential.m).branches:
        weight = np.exp(_interp_cells(potential.values, j, right, frac))
        out += weight * _interp_cells(h.values, j, right, frac)
    return GridFunction(_frozen(out))


# ---------------------------------------------------------------------------
# equilibrium solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumData:
    """Pressure, eigenfunction, invariant density, and normalized potential.

    density integrates to 1 and represents nu on the grid; phi satisfies
    L_phi 1 = 1 and L*_phi nu = nu up to discretization error; lyapunov is
    the nu-average of ln f' and dimension = -(integral of phi) / lyapunov.
    """

    spec: PerturbationSpec
    potential_psi: GridFunction
    pressure: float
    eigenfunction: GridFunction
    density: GridFunction
    phi: GridFunction
    lyapunov: float
    dimension: float

    @property
    def m(self) -> int:
        return self.density.m


_EIG_TOL = 1e-12
_EIG_SWEEPS = 10_000


def solve_equilibrium(spec: PerturbationSpec, psi: GridFunction) -> EquilibriumData:
    """Leading eigendata of L_psi by simultaneous power iteration.

    Forward iteration gives the eigenfunction h and e^P, transpose iteration
    gives the invariant density; both are renormalized each sweep and the
    loop stops when successive Rayleigh estimates agree to _EIG_TOL, or
    raises after _EIG_SWEEPS sweeps.

    The solve works in place: each sweep normalizes its new iterates in
    place, rho, x, f(x) and ln h are dropped before the phi matrix is
    built, and the density loop takes its sup change in the old iterate's
    buffer.  The bits are those of the plain expressions.

    Each Rayleigh quotient's two inner products are NumPy pairwise sums,
    which run on the calling thread.  A BLAS dot product over more than
    10^4 entries may be split across BLAS threads: each split sums in
    another order, so the pressure's last bits would follow the BLAS
    thread count, and every call would wait for the woken workers.
    """
    m = psi.m
    mat = transfer_matrix(spec, psi)
    mat_t = mat.T
    h = np.ones(m)
    rho = np.ones(m)
    lam_prev = np.inf
    for _ in range(_EIG_SWEEPS):
        h_new = mat @ h
        rho_new = mat_t @ rho
        lam = float((h_new * rho).sum() / (h * rho).sum())
        h_new /= h_new.max()
        rho_new /= rho_new.mean()
        h, rho = h_new, rho_new
        if abs(lam - lam_prev) < _EIG_TOL:
            break
        lam_prev = lam
    else:
        raise SpectralConvergenceError(
            f"power iteration did not converge in {_EIG_SWEEPS} sweeps (tol {_EIG_TOL:.1e})"
        )
    del mat, mat_t, h_new, rho_new  # freed before the phi matrix is built

    if h.min() <= 0.0:
        raise SpectralConvergenceError("eigenfunction lost positivity")
    pressure = float(np.log(lam))

    # The adjoint iterate above is the conformal eigenmeasure of L_psi; the
    # invariant density is the fixed measure of the normalized operator, so
    # iterate the transpose of the phi-matrix itself (leading eigenvalue 1 up
    # to interpolation error) starting from the product guess h * rho, which
    # is all that rho is still needed for.  The order of the next statements
    # decides whether the solve's garbage ends at the heap's top, where glibc
    # returns it, and so moves the process's peak RSS by megabytes (README's
    # paragraph on peak memory): measure the whole run before reordering them.
    dens = h * rho
    dens /= dens.mean()
    del rho
    log_h = np.log(h)
    fx, fp = f_eval(spec, nodes(m))
    phi_vals = psi.values - pressure + log_h - _interp_periodic(log_h, fx)
    del fx, log_h  # freed before the phi matrix is built
    phi = GridFunction(_frozen(phi_vals))
    mat_phi_t = transfer_matrix(spec, phi).T
    for _ in range(_EIG_SWEEPS):
        dens_new = mat_phi_t @ dens
        dens_new /= dens_new.mean()
        # |dens - dens_new| is |dens_new - dens| bit for bit; the old iterate holds it
        np.subtract(dens, dens_new, out=dens)
        delta = np.abs(dens, out=dens).max()
        dens = dens_new
        if delta < _EIG_TOL:
            break
    else:
        raise SpectralConvergenceError(
            f"invariant-density iteration did not converge in {_EIG_SWEEPS} sweeps"
        )

    density = GridFunction(_frozen(dens))
    lyap = float(np.mean(np.log(fp) * dens))
    dim = -float(np.mean(phi_vals * dens)) / lyap

    return EquilibriumData(
        spec=spec,
        potential_psi=psi,
        pressure=pressure,
        eigenfunction=GridFunction(_frozen(h)),
        density=density,
        phi=phi,
        lyapunov=lyap,
        dimension=dim,
    )


# ---------------------------------------------------------------------------
# measure geometry
# ---------------------------------------------------------------------------

def _node_cdf(eq: EquilibriumData) -> tuple[np.ndarray, float]:
    """Raw node CDF of the piecewise-linear density and its total mass."""
    rho = eq.density.values
    m = eq.m
    seg = (rho + np.roll(rho, -1)) / (2.0 * m)
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    return cdf, float(cdf[-1])


def measure_cdf(eq: EquilibriumData, x) -> np.ndarray:
    """nu([0, x]) for x in [0, 1], exact for the piecewise-linear density."""
    cdf, total = _node_cdf(eq)
    m = eq.m
    rho = eq.density.values
    xv = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    t = xv * m
    j = np.minimum(np.floor(t).astype(int), m - 1)
    frac = t - j
    rho_next = rho[(j + 1) % m]
    local = (rho[j] * frac + 0.5 * (rho_next - rho[j]) * frac**2) / m
    return (cdf[j] + local) / total


def ball_mass(eq: EquilibriumData, centers, r: float):
    """nu of the circular ball B(x, r), vectorized over centers."""
    c = np.asarray(centers, dtype=float)
    lo = _mod1(c - r)
    hi = _mod1(c + r)
    mass = measure_cdf(eq, hi) - measure_cdf(eq, lo)
    return np.where(mass < 0.0, mass + 1.0, mass)


def cylinder_levels(eq: EquilibriumData, levels: Sequence[int]) -> list[tuple]:
    """(n, nu(U_w), S_n ln f', S_n phi) over the level-n cylinders, for each n in levels.

    Arrays run in lexicographic word order, sums at the anchors.  One slice
    of the process's shared x = 0 tree at the deepest level serves every n:
    its every 2^(top-n)-th endpoint is the level-n endpoint bit for bit, and
    one pass of each sum holds every level.
    """
    if min(levels, default=0) < 1:
        raise ValueError("levels must be a non-empty list of n >= 1")
    top = max(levels)
    tree = level_endpoints(eq.spec, top)
    cdf = measure_cdf(eq, tree)
    s_tau, s_phi = log_expansion_sums(eq.spec, tree), tree_birkhoff_sums(tree, eq.phi)
    return [(n, np.diff(cdf[:: 1 << (top - n)]), s_tau[n - 1], s_phi[n - 1]) for n in levels]


def gibbs_ratio_stats(eq: EquilibriumData, levels: Sequence[int]) -> list[tuple]:
    """(n, min, max) over level-n cylinders of nu(U_w) / e^{S_n phi(anchor)}, per n in levels.

    Bounded distortion predicts both extremes stay within a constant of 1
    independent of n; for the linear maximal-entropy case they equal 1.
    """
    ratios = [(n, masses / np.exp(s_phi)) for n, masses, _, s_phi in cylinder_levels(eq, levels)]
    return [(n, float(r.min()), float(r.max())) for n, r in ratios]


def upper_regularity_exponent(eq: EquilibriumData, radii: Sequence[float]) -> float:
    """Least-squares slope of ln sup_x nu(B(x, r)) against ln r.

    A positive slope certifies upper regularity at the scanned scales; the
    slope is 1 when the density is bounded above and below.
    """
    radii = np.asarray(list(radii), dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("need at least two radii")
    # each comparison is also false for a NaN
    if not (np.all((radii > 0.0) & (radii < 0.5)) and np.all(np.diff(radii) < 0)):
        raise ValueError("radii must be decreasing in (0, 1/2)")
    centers = nodes(eq.m)
    sup_mass = np.array([ball_mass(eq, centers, r).max() for r in radii])
    slope, _ = np.polyfit(np.log(radii), np.log(sup_mass), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# large deviations and regular words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationProfile:
    """nu-mass escaping the Birkhoff-average window, per block length."""

    epsilon: float
    entries: tuple[tuple[int, float], ...]
    fitted_rate: float


def _outside_windows(
    eq: EquilibriumData, s_tau: np.ndarray, s_phi: np.ndarray, n: int, epsilon: float
) -> np.ndarray:
    """True where n-step sums of ln f' and phi leave either epsilon window.

    The windows bound the expansion rate S_n ln f' / n around the Lyapunov
    exponent and the local dimension -S_n phi / S_n ln f' around the
    dimension of nu.
    """
    bad_rate = np.abs(s_tau / n - eq.lyapunov) >= epsilon
    bad_dim = np.abs(s_phi / s_tau + eq.dimension) >= epsilon
    return bad_rate | bad_dim


def large_deviation_profile(
    eq: EquilibriumData,
    epsilon: float,
    n_list: Sequence[int],
) -> DeviationProfile:
    """Escaping nu-mass fraction(n) over the requested block lengths.

    Every level-n cylinder, n up to the enumeration cap symbolic._MAX_LEVEL
    (16), is tested at its anchor and contributes its full nu-mass when the
    anchor's averages fall outside the epsilon windows.  The fitted rate
    regresses ln fraction on n over the positive entries (0 when fewer
    than two entries are positive).
    """
    if not epsilon > 0.0:  # also false for a NaN
        raise ValueError("epsilon must be positive")
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    entries = [
        (n, float(masses[_outside_windows(eq, s_tau, s_phi, n, epsilon)].sum()))
        for n, masses, s_tau, s_phi in cylinder_levels(eq, n_list)
    ]
    pos = [(n, f) for n, f in entries if f > 0.0]
    if len(pos) >= 2:
        ns = np.array([n for n, _ in pos], dtype=float)
        fr = np.log([f for _, f in pos])
        rate = float(np.polyfit(ns, fr, 1)[0])
    else:
        rate = 0.0
    return DeviationProfile(epsilon, tuple(entries), rate)


def regular_words(
    eq: EquilibriumData,
    n: int,
    epsilon: float,
    window: tuple[float, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Indices of the 2^(n+1) words of length n + 1 passing both epsilon windows.

    A word is regular when the n-step Birkhoff averages at its cylinder
    anchor stay within epsilon of the global rate and dimension; window,
    when given, keeps only words whose cylinders meet the interval
    [window[0], window[1]].  Returns (lexicographic indices,
    e^{dim * lyap * n}), the second being the cardinality benchmark.

    The anchor's n-step orbit ends on the fixed point 0 or 1 of the word's
    last symbol, so S_n is the tree's S_(n+1) less the level-1 sum there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not epsilon > 0.0:  # also false for a NaN
        raise ValueError("epsilon must be positive")
    pts = level_endpoints(eq.spec, n + 1)
    s_tau, s_phi = (
        sums[n] - np.tile(sums[0], 1 << n)
        for sums in (log_expansion_sums(eq.spec, pts), tree_birkhoff_sums(pts, eq.phi))
    )
    good = ~_outside_windows(eq, s_tau, s_phi, n, epsilon)
    if window is not None:
        lo, hi = window
        overlap = (pts[:-1] < hi) & (pts[1:] > lo)
        good &= overlap
    benchmark = float(np.exp(eq.dimension * eq.lyapunov * n))
    return np.nonzero(good)[0], benchmark


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# sample searches and solves this many draws at a time, so a block's dozen
# float and index temporaries (~1.6 MB together) stay near cache instead of
# each spanning every draw.
_SAMPLE_BLOCK = 1 << 14


def sample(eq: EquilibriumData, count: int, seed: int) -> np.ndarray:
    """count i.i.d. draws from nu by inverting the piecewise-quadratic CDF.

    Each draw's cell is the last node j with cdf[j] <= u, the one
    searchsorted(cdf, u, "right") - 1 finds, read from a guide table instead
    of a binary search per draw.  key(x) = floor(x m / total) is monotone in
    x, so the last node whose key is below key(u) (node 0 if none is) lies
    below u; each draw starts there and steps forward while the next node is
    still <= u.  The uniforms come from one rng.random(count) call; the
    search and the root then run over blocks of _SAMPLE_BLOCK = 2^14 draws,
    each written back over its own uniforms, so only the returned array,
    about 8 bytes per draw, is kept at full length.  Every step is
    elementwise, so the blocks give the same bits as one pass.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    cdf, total = _node_cdf(eq)
    draws = rng.random(count) * total  # each block's u, overwritten by its draws
    rho = eq.density.values
    m = eq.m
    scale = m / total
    keys = (cdf * scale).astype(np.intp)
    guide = np.maximum(np.searchsorted(keys, np.arange(keys[-1] + 1)) - 1, 0)
    upper = np.append(cdf[1:], np.inf)  # upper[j] = cdf[j + 1]; none past the last node
    for start in range(0, count, _SAMPLE_BLOCK):
        u = draws[start : start + _SAMPLE_BLOCK]  # a view into draws
        j = guide[(u * scale).astype(np.intp)]
        ahead = np.flatnonzero(upper[j] <= u)
        while ahead.size:  # in place, on the draws still short of their cell
            j[ahead] += 1
            ahead = ahead[upper[j[ahead]] <= u[ahead]]
        j = np.clip(j, 0, m - 1)
        local = (u - cdf[j]) * m  # mass to absorb inside cell j, times m
        a = rho[j]
        b = rho[(j + 1) % m] - rho[j]
        # solve a t + b t^2 / 2 = local for t in [0, 1]; the root (disc - a) / b,
        # rationalized, cancels nowhere and needs no branch for b near 0
        disc = np.sqrt(np.maximum(a * a + 2.0 * b * local, 0.0))
        t = 2.0 * local / (a + disc)
        t = np.clip(t, 0.0, 1.0)
        np.divide(j + t, m, out=u)
    return draws
