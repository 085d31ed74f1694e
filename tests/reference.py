"""The plainest form of each fast kernel, written from its definition.

test_differential.py pairs each with its fast kernel; a change that makes a
kernel faster adds a row there, not a private copy of the kernel it replaces.
same_bits is the one bit-for-bit comparison the tests use.
"""

import dataclasses
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from solenoidlab import circle_map, symbolic, thermo
from solenoidlab.circle_map import LatticeReport, _interval, coefficient_table
from solenoidlab.solenoid import push_forward
from solenoidlab.symbolic import BranchSolverError
from solenoidlab.thermo import GridFunction, mme_potential, nodes, solve_equilibrium, srb_potential
from solenoidlab.thermo import sample as _sample


def same_bits(got, want, any_nan=False):
    """Assert got and want hold the same values bit for bit: equal types, shapes,
    dtypes and bytes, through tuples and lists; with any_nan, NaN matches any NaN."""
    assert type(got) is type(want), (type(got), type(want))
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            same_bits(a, b, any_nan)
        return
    a, b = np.asarray(got), np.asarray(want)
    assert a.shape == b.shape and a.dtype == b.dtype, (a.shape, b.shape, a.dtype, b.dtype)
    if any_nan:
        nan = np.isnan(b)
        assert np.array_equal(np.isnan(a), nan)
        a, b = a[~nan], b[~nan]
    assert a.tobytes() == b.tobytes()



def exp_step(t):
    """The C-infinity step exp(-1/t) / (exp(-1/t) + exp(-1/(1 - t))) on [0, 1] and
    its derivative, each exp taken only where its argument is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
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


def bump_chi(u, kind):
    """chi(u) = u theta(u) and chi'(u), the plateau profile theta evaluated at every point."""
    step = {"exp": exp_step, "smoothstep": circle_map._poly_step}[kind]
    u = np.asarray(u, dtype=float)
    theta, dstep = step(2.0 - 4.0 * np.abs(u))
    dtheta = dstep * (-4.0) * np.sign(u)
    return u * theta, theta + u * dtheta


def g(spec, x):
    """g and g' at x mod 1, every order's term over every point, an order with no
    live point skipped; x keeps its shape."""
    with np.errstate(invalid="ignore"):  # +-inf reduces to NaN
        xv = np.asarray(np.asarray(x, dtype=float) % 1.0)
    g = np.zeros_like(xv)
    gp = np.zeros_like(xv)
    for n, alpha in enumerate(spec.alphas, start=2):
        scale = 8.0**n
        u = scale * (xv - 1.0 / (2.0**n - 1.0))
        live = np.abs(u) < 0.5
        if not live.any():
            continue
        chi, dchi = bump_chi(u[live], spec.bump_kind)
        g[live] += alpha / scale * chi
        gp[live] += alpha * dchi
    return g[()], gp[()]


def f(spec, x):
    """f(x) = (2x + g(x)) mod 1 and f'(x) = 2 + g'(x), x taken mod 1."""
    gx, gp = g(spec, x)
    with np.errstate(invalid="ignore"):
        return (2.0 * (np.asarray(x, dtype=float) % 1.0) + gx) % 1.0, 2.0 + gp


def lattice(k_max, radius_base):
    """The lattice check as every pair of orders and every point against every order."""
    first = None
    intervals = [(K, *_interval(K, radius_base)) for K in range(2, k_max + 1)]
    pairs, disjoint_ok = 0, True
    for (ki, lo_i, hi_i), (kj, lo_j, hi_j) in combinations(intervals, 2):
        pairs += 1
        if not (hi_j < lo_i or hi_i < lo_j):
            disjoint_ok = False
            first = first or f"intervals K={ki} and K={kj} overlap"
    # every order whose interval reaches the smallest point, 2/(2^k_max - 1)
    min_point = Fraction(2, 2**k_max - 1)
    deep = []
    while not deep or deep[-1][2] >= min_point:
        deep.append((len(deep) + 2, *_interval(len(deep) + 2, radius_base)))
    exclusions, exclusions_ok = 0, True
    for N in range(2, k_max + 1):
        for k in range(1, N):
            exclusions += 1
            p = Fraction(2**k, 2**N - 1)
            for K, lo, hi in deep:
                if lo <= p <= hi:
                    exclusions_ok = False
                    first = first or f"2^{k}/(2^{N}-1) lies in the order-{K} interval"
                    break
    return LatticeReport(
        k_max, radius_base, len(intervals), pairs, exclusions, disjoint_ok, exclusions_ok, first
    )


def birkhoff_sums(spec, x, steps, fn):
    """fn summed over the first steps points of each orbit x, f(x), f(f(x)), ..."""
    total = np.zeros_like(x)
    for _ in range(steps):
        total += fn(x)
        x, _ = f(spec, x)
    return total


def walk(spec, thetas, depth):
    """F^depth of the points (theta, 0, 0): theta -> f(theta), and x, y contract
    by 1/4 toward (cos, sin)(2 pi theta) / (4 pi)."""
    xs, ys = np.zeros(np.size(thetas)), np.zeros(np.size(thetas))
    for _ in range(depth):
        ang = 2.0 * np.pi * thetas
        thetas, _ = f(spec, thetas)
        xs = 0.25 * xs + 1.0 / (4.0 * np.pi) * np.cos(ang)
        ys = 0.25 * ys + 1.0 / (4.0 * np.pi) * np.sin(ang)
    return thetas, xs, ys



def solve_branch(spec, a, x):
    """y with 2y + g(y) = x + a, every point swept again until one sweep reproduces
    all of them; returns (y, g'(y))."""
    target = x + a
    y = 0.5 * target
    for _ in range(symbolic._SWEEPS):
        gy, gp = symbolic.g_eval(spec, y)
        nxt = 0.5 * (target - gy)
        if np.array_equal(nxt, y):
            break
        y = nxt
    else:
        gy, gp = symbolic.g_eval(spec, y)
    resid = np.abs(2.0 * y + gy - target)
    if not np.all(resid < 1e-14):
        raise BranchSolverError(f"branch solve residual {np.max(resid):.3e} exceeds 1e-14")
    return y, gp


def levels(spec, n):
    """Endpoints of levels 0..n: level k + 1 is g_0 of level k, then g_1 of it less its 0."""
    out = [np.array([0.0, 1.0])]
    for _ in range(n):
        left, _ = symbolic.apply_word(spec, (0,), out[-1])
        right, _ = symbolic.apply_word(spec, (1,), out[-1])
        out.append(np.concatenate([left, right[1:]]))
    return out


def zeta_values(eq, ctx, n):
    """The phase table e^(2 lyapunov n) (g_w)' from the preimage tree of both anchors."""
    y, deriv = symbolic.preimage_tree(eq.spec, [0.0, 1.0], n)
    _, deriv = symbolic._compose(eq.spec, ctx[:-1], y.ravel(), deriv.ravel())
    return np.exp(2.0 * eq.lyapunov * n) * deriv



def cell(x, m):
    """Cell j of x mod 1 on m nodes, its right node and the offset, with int64 cells."""
    t = (np.asarray(x, dtype=float) % 1.0) * m
    j = np.floor(t).astype(int) % m
    return j, (j + 1) % m, t - np.floor(t)


def interp(values, j, right, frac):
    """Linear interpolation between nodes j and right."""
    return values[j] * (1.0 - frac) + values[right] * frac


def transfer_matrix(spec, potential, twist=0.0):
    """The transfer matrix as a COO triple converted by scipy, cells found per build."""
    m = potential.m
    y, deriv = symbolic.preimage_tree(spec, nodes(m), 1)
    cols, data = [], []
    for ya, fp in zip(y % 1.0, 1.0 / deriv):
        w = np.exp(potential(ya))
        if twist:
            w = w * np.exp(1j * twist * np.log(fp))
        j, right, frac = cell(ya, m)
        cols += [j, right]
        data += [w * (1.0 - frac), w * frac]
    rows = np.tile(np.arange(m), 4)
    return sp.csr_matrix((np.concatenate(data), (rows, np.concatenate(cols))), shape=(m, m))


def sample(eq, r):
    """The draws from the fractions r, each cell found by binary search,
    searchsorted(cdf, u, "right") - 1."""
    cdf, total = thermo._node_cdf(eq)
    u = r * total
    rho, m = eq.density.values, eq.m
    j = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, m - 1)
    local = (u - cdf[j]) * m
    a, b = rho[j], rho[(j + 1) % m] - rho[j]
    t = np.clip(2.0 * local / (a + np.sqrt(np.maximum(a * a + 2.0 * b * local, 0.0))), 0.0, 1.0)
    return (j + t) / m


@lru_cache(maxsize=None)
def equilibrium(kind):
    """The order-5 exp-bump equilibria the sampling and Fourier checks draw from."""
    spec = coefficient_table(5)
    if kind == "sin":  # an O(1) potential: the density has a slope in every cell
        return solve_equilibrium(spec, GridFunction(0.5 * np.sin(2 * np.pi * nodes(1 << 12))))
    if kind == "srb":
        return solve_equilibrium(spec, srb_potential(spec, 1 << 14))
    eq = solve_equilibrium(spec, mme_potential(1 << 14))  # many nearly flat cells
    if kind == "flat":  # a stretch of 4,000 cells whose mass the node CDF cannot resolve
        rho = eq.density.values.copy()
        rho[6000:10000] = 1e-20
        return dataclasses.replace(eq, density=GridFunction(rho))
    return eq



def pair_counts(values, sigmas):
    """At each sigma, the ordered pairs (a, b), diagonal included, whose rounded
    |a - b| is at most sigma."""
    v = np.asarray(values, dtype=float)
    return [sum(int(np.count_nonzero(np.abs(v[i:i + 256, None] - v) <= sigma))
                for i in range(0, v.size, 256)) for sigma in sigmas]


def product_distribution(tables):
    """Distinct values of z_1 ... z_k and their multiplicities, folded from the first table."""
    values, weights = np.unique(tables[0].values, return_counts=True)
    weights = weights.astype(float)
    for table in tables[1:]:
        nxt, cnt = np.unique(table.values, return_counts=True)
        values, inverse = np.unique(np.multiply.outer(values, nxt).ravel(), return_inverse=True)
        w = np.multiply.outer(weights, cnt.astype(float)).ravel()
        weights = np.zeros_like(values)
        np.add.at(weights, inverse, w)
    return values, weights


def exp_sum(eta, tables):
    """N^-k |sum W_v C_w e^(i eta v w)| over every distinct product v of the first
    k - 1 tables and distinct value w of the last, 2^20 phases at a time."""
    values, weights = product_distribution(tables[:-1]) if tables[1:] else (np.ones(1), np.ones(1))
    last, cnt = np.unique(tables[-1].values, return_counts=True)
    total = 0.0 + 0.0j
    chunk = max(1, (1 << 20) // last.size)
    for start in range(0, values.size, chunk):
        block = np.exp(1j * eta * np.multiply.outer(values[start : start + chunk], last))
        total += (weights[start : start + chunk, None] * (block * cnt)).sum()
    return float(abs(total)) / float(tables[0].size) ** len(tables)



def mu_hat(eq, rows, samples, seed, pushed=None):
    """mu_hat's estimates from np.exp(1j * phase), its mean and the two parts' var(),
    reading the given push of the draws, or pushing them here."""
    draws = _sample(eq, samples, seed)
    thetas, xs, ys = pushed or push_forward(eq.spec, draws, 20)
    out = []
    for row in np.asarray(rows, dtype=float):
        if row[1:].any():
            phase = row[0] * thetas
            phase += row[1] * xs
            phase += row[2] * ys
        else:
            phase = row[0] * draws
        vals = np.exp(1j * phase)
        var = vals.real.var() + vals.imag.var()
        out.append((complex(vals.mean()), float(np.sqrt(var / samples))))
    return out
