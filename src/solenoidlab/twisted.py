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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solenoid import _thread_map
from .symbolic import _check_word, _compose, preimage_tree
from .thermo import EquilibriumData, transfer_matrix

__all__ = [
    "ZetaTable",
    "ConcentrationReport",
    "twisted_norm_profile",
    "zeta_table",
    "nonconcentration_count",
    "concentration_report",
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


# ---------------------------------------------------------------------------
# k-fold exponential sums
# ---------------------------------------------------------------------------

_FOLD_LIMIT = 50_000_000
# Rows per exp_sum band.  Each band's temporaries stay small while its rows
# are written into the chunk's block; the block is summed whole, so the
# result does not depend on the band size or the thread count.
_BAND = 64


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


def exp_sum(eta: float, tables: Sequence[ZetaTable]) -> float:
    """Normalized k-fold sum N^-k |sum exp(i eta zeta_1(b_1) ... zeta_k(b_k))|.

    The sum over all N^k tuples is evaluated exactly.  The first k - 1
    tables fold into the distinct values of their product with
    multiplicities (the single value 1.0 for k = 1), the last table's
    entries merge the same way, and the pairs are summed as a chunked
    outer product: the same terms, reordered.  Each chunk's block
    is filled in fixed bands of _BAND rows by solenoid._thread_map, the
    push-forward's thread pool, and then summed whole.
    """
    if not tables:
        raise ValueError("need at least one table")
    sizes = {t.size for t in tables}
    if len(sizes) != 1:
        raise ValueError("all tables must have the same size")
    N = sizes.pop()
    k = len(tables)

    values, weights = _product_distribution(tables[:-1])
    last, cnt = np.unique(np.asarray(tables[-1].values, dtype=float), return_counts=True)
    total = 0.0 + 0.0j
    chunk = max(1, _FOLD_LIMIT // (10 * max(last.size, 1)))
    for start in range(0, values.size, chunk):
        v, w = values[start : start + chunk], weights[start : start + chunk]
        block = np.empty((v.size, last.size), dtype=complex)

        def fill(row: int) -> None:
            r = slice(row, row + _BAND)
            np.multiply(
                w[r, None], np.exp(1j * eta * np.multiply.outer(v[r], last)) * cnt, out=block[r]
            )

        _thread_map(fill, range(0, v.size, _BAND))
        total += block.sum()
    return float(abs(total)) / float(N) ** k
