"""Twisted transfer operators, phase tables, and exponential sums.

L_{it} weights each inverse branch by e^{phi(y) + i t ln f'(y)}; for the
unperturbed map ln f' is constant so the twist is a global phase and the
iterates of 1 keep sup-norm one, while a genuinely nonlinear map lets the
oscillations cancel and the sup-norms drift down.  The phase tables carry
e^{2 Lambda n} |g_w'| over all continuation words of a fixed context block,
and the pair-count / k-fold exponential-sum routines measure
non-concentration and sum-product decay of those tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symbolic import _check_word, _compose, preimage_tree
from .thermo import EquilibriumData, transfer_matrix

__all__ = [
    "ZetaTable",
    "ConcentrationReport",
    "twisted_norm_profile",
    "zeta_table",
    "nonconcentration_count",
    "concentration_report",
    "TableScale",
    "table_scale",
    "ExpSumReport",
    "exp_sum",
]


def twisted_norm_profile(eq: EquilibriumData, t: float, n_max: int) -> np.ndarray:
    """Sup-norms of L_{it}^n applied to 1, for n = 1..n_max.

    At t = 0 the normalized operator fixes 1 so the profile is constant one;
    contraction at large |t| is the operator-level signature of nonlinearity.
    """
    if not 1 <= n_max <= 200:
        raise ValueError("n_max must be in 1..200")
    mat = transfer_matrix(eq.spec, eq.phi, twist=float(t))
    h = np.ones(eq.m, dtype=complex)
    norms = np.empty(n_max)
    for n in range(n_max):
        h = mat @ h
        norms[n] = np.abs(h).max()
    return norms


# ---------------------------------------------------------------------------
# phase tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaTable:
    """Renormalized word-derivative phases over one block slot.

    values[i] = e^{2 Lambda n} |g'_{context' b}| for the word b with
    lexicographic index i, the composed derivative being evaluated at the
    canonical anchor of the half-interval fixed by b's final symbol.
    """

    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.shape[0]


def zeta_table(eq: EquilibriumData, context: Sequence[int], n: int) -> ZetaTable:
    """Phase table over all 2^(n+1) continuation words of length n + 1.

    context supplies the preceding block (length n + 1); its last symbol is
    dropped and the remaining 2n branch symbols (context' followed by b')
    are composed right to left from the anchor selected by b's last symbol.
    For the linear map every entry equals one.
    """
    if not 1 <= n <= 14:
        raise ValueError("n must be in 1..14")
    ctx = _check_word(context)
    if len(ctx) != n + 1:
        raise ValueError(f"context must have length n + 1 = {n + 1}, got {len(ctx)}")

    # row b', column s is the word b' s at its anchor s; raveled, index 2 b' + s
    y, deriv = preimage_tree(eq.spec, [0.0, 1.0], n)
    _, deriv = _compose(eq.spec, ctx[:-1], y.ravel(), deriv.ravel())

    values = np.exp(2.0 * eq.lyapunov * n) * deriv
    return ZetaTable(values)


# ---------------------------------------------------------------------------
# non-concentration counting
# ---------------------------------------------------------------------------

def nonconcentration_count(table: ZetaTable, sigma: float) -> int:
    """Ordered pairs (b, c), diagonal included, with |zeta(b) - zeta(c)| <= sigma.

    Each pair is judged by its rounded difference, as the all-pairs count
    judges it; searching for the rounded bounds v +- sigma instead misjudges
    pairs one rounding away from sigma.  After a sort fl(v[j] - v[i]) does
    not decrease in j and fl(a - b) = -fl(b - a), so a vectorized bisection
    per row finds the first later entry beyond sigma, and the count is twice
    the pairs with j >= i, less the diagonal.  An all-equal table of size N
    counts exactly N^2.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    v = np.sort(table.values)
    rows = np.arange(v.size)
    lo, hi = rows, np.full(v.size, v.size)  # v[lo] - v <= sigma < v[hi] - v
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2  # a settled row (hi = lo + 1) has mid = lo and stays
        ok = v[mid] - v <= sigma
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return int(2 * (hi - rows).sum() - v.size)


@dataclass(frozen=True)
class ConcentrationReport:
    """Pair counts across a sigma sweep with the fitted power-law exponent."""

    sigma_list: tuple[float, ...]
    counts: tuple[int, ...]
    N: int
    gamma_emp: float


def concentration_report(table: ZetaTable, sigma_list: Sequence[float]) -> ConcentrationReport:
    """Count pairs at each sigma and fit ln(count/N^2) against ln sigma.

    gamma_emp > 0 is the empirical non-concentration exponent; 0 means the
    table is flat at the scanned scales.
    """
    sigmas = [float(s) for s in sigma_list]
    if len(sigmas) < 2:
        raise ValueError("need at least two sigma values")
    counts = [nonconcentration_count(table, s) for s in sigmas]
    n2 = float(table.size) ** 2
    gamma, _ = np.polyfit(np.log(sigmas), np.log(np.array(counts) / n2), 1)
    return ConcentrationReport(tuple(sigmas), tuple(counts), table.size, float(gamma))


@dataclass(frozen=True)
class TableScale:
    """Where a table's entries sit: their range and their exact ties.

    tie_floor = sum p_i^2 over the shares p_i of the distinct values is
    the least count/N^2 any sigma can give.
    """

    spread: float
    distinct: int
    largest_atom: float
    tie_floor: float


def table_scale(table: ZetaTable) -> TableScale:
    """Spread, distinct count, largest tie share and tie floor of a table."""
    values, counts = np.unique(table.values, return_counts=True)
    shares = counts / table.size
    return TableScale(
        float(values[-1] - values[0]), values.size, float(shares.max()), float(shares @ shares)
    )


# ---------------------------------------------------------------------------
# k-fold exponential sums
# ---------------------------------------------------------------------------

_FOLD_LIMIT = 50_000_000
# Truncation bound of the cross-term expansion, relative to N^k.
_TAIL = 2.0**-60


def _product_distribution(tables: Sequence[ZetaTable]) -> tuple[np.ndarray, np.ndarray]:
    """Values and multiplicities of z_1 * ... * z_{k}, merging exact duplicates.

    The fold starts from the empty product, value 1.0 with weight 1.0.
    """
    values, weights = np.ones(1), np.ones(1)
    for table in tables:
        nxt, cnt = np.unique(np.asarray(table.values, dtype=float), return_counts=True)
        if values.size * nxt.size > _FOLD_LIMIT:
            raise ValueError(
                "fold stage exceeds the in-memory product limit; reduce n or k"
            )
        prod = np.multiply.outer(values, nxt).ravel()
        w = np.multiply.outer(weights, cnt.astype(float)).ravel()
        values, inverse = np.unique(prod, return_inverse=True)
        weights = np.zeros_like(values)
        np.add.at(weights, inverse, w)
    return values, weights


def _term_count(bound: float) -> int:
    """Fewest terms P whose tail bound e^B B^P / P! is at most 2^-60."""
    terms, tail = 1, math.exp(bound) * bound
    while tail > _TAIL:
        terms += 1
        tail *= bound / terms
    return terms


def _bands(eta: float, values: np.ndarray, half_width: float):
    """Yield (slice, B, terms) for each band of the sorted values.

    Bands are 2 / (|eta| s) wide from the smallest value, s = max|dw|, so
    each band's B = |eta| max|dv| s is at most 1.  Only bands that hold a
    value are made; where there would be at least as many bands as values,
    each value is its own band, with dv = 0 and B = 0.
    """
    ids = np.floor((values - values[0]) * (abs(eta) * half_width / 2.0))
    if ids[-1] >= values.size - 1:
        ids = np.arange(values.size)
    edges = np.flatnonzero(np.diff(ids)) + 1
    for start, stop in zip(np.r_[0, edges], np.r_[edges, values.size]):
        bound = abs(eta) * (values[stop - 1] - values[start]) / 2.0 * half_width
        yield slice(start, stop), bound, _term_count(bound)


@dataclass(frozen=True)
class ExpSumReport:
    """One modulus per eta, the terms summed over every eta and band, and the largest band's B."""

    moduli: tuple[float, ...]
    terms: int
    max_cross_bound: float


def exp_sum(etas: Sequence[float], tables: Sequence[ZetaTable]) -> ExpSumReport:
    """Normalized k-fold sums N^-k |sum exp(i eta zeta_1(b_1) ... zeta_k(b_k))| at each eta.

    The first k - 1 tables fold once into the distinct values v of their
    product with weights W_v (the single value 1.0 for k = 1), and the last
    table merges once into distinct values w with counts C_w, for every
    eta.  Centring v = v_c + dv and w = w_c + dw expands only the cross term:

      sum W_v C_w e^{i eta v w} = e^{i eta v_c w_c} sum_p (i eta)^p / p!
          [sum_v W_v dv^p e^{i eta w_c dv}] [sum_w C_w dw^p e^{i eta v_c dw}],

    O(#v + #w) per term.  Each band of v values (see _bands) has its own
    v_c and B = |eta| max|dv| max|dw| <= 1, and sums terms until the tail
    bound e^B B^P / P! is at most 2^-60, so the truncation error is at most
    2^-60 of N^k.
    """
    if not tables:
        raise ValueError("need at least one table")
    N, k = tables[0].size, len(tables)
    if any(t.size != N for t in tables):
        raise ValueError("all tables must have the same size")

    values, weights = _product_distribution(tables[:-1])
    last, cnt = np.unique(np.asarray(tables[-1].values, dtype=float), return_counts=True)
    w_c, s = (last[0] + last[-1]) / 2.0, (last[-1] - last[0]) / 2.0
    dw = last - w_c
    y = dw / (s or 1.0)  # |y| <= 1; with x = eta s dv, x y = eta dv dw
    moduli, total_terms, max_bound = [], 0, 0.0
    for eta in map(float, etas):
        total = 0.0 + 0.0j
        for band, bound, terms in _bands(eta, values, s):
            total_terms, max_bound = total_terms + terms, max(max_bound, float(bound))
            v_c = (values[band][0] + values[band][-1]) / 2.0
            dv = values[band] - v_c
            x = eta * s * dv
            a = weights[band] * np.exp(1j * eta * w_c * dv)
            c = cnt * np.exp(1j * eta * v_c * dw)
            band_sum, coef = 0.0 + 0.0j, 1.0 + 0.0j  # coef = i^p / p!
            for p in range(terms):
                band_sum += coef * a.sum() * c.sum()
                a, c, coef = a * x, c * y, coef * 1j / (p + 1)
            # e^{i eta v_c w_c} relative to the smallest value's, so the phase stays small
            total += band_sum * np.exp(1j * eta * w_c * (v_c - values[0]))
        moduli.append(float(abs(total)) / float(N) ** k)
    return ExpSumReport(tuple(moduli), total_terms, max_bound)
