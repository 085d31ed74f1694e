"""Two-symbol coding of the circle factor.

The map f is a full degree-2 covering: branch 0 carries [0, 1/2] onto
[0, 1] and branch 1 carries [1/2, 1] onto [0, 1], so every finite 0/1
word is admissible.  Inverse branches are solved on the lift by the
contraction y <- (x + a - g(y)) / 2, words compose right to left, and the
level-n cylinders tile the interval in lexicographic = spatial order.

The contraction factor is sup|g'| / 2 < 1/2, because PerturbationSpec
enforces the C^1 budget sup|g'| < 1, so each sweep at least halves the
distance to the root and a fixed number of sweeps reaches it to the last
bit.  The branches fix the cylinder endpoints exactly, g_0(0) = 0.0 and
g_1(1) = 1.0, so the level-k endpoints are every 2^(n-k)-th level-n
endpoint, bit for bit: one level-n tree serves every coarser level.

Boundary convention: theta = 1/2 belongs to symbol 1 and theta = 0 to
symbol 0; cylinder work happens on the closed interval [0, 1] so the
right endpoint 1 (the circle point 0) is a legal lift coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circle_map import PerturbationSpec, f_eval, g_eval

__all__ = [
    "Word",
    "Cylinder",
    "BranchSolverError",
    "inverse_branch",
    "apply_word",
    "cylinder",
    "level_endpoints",
    "level_anchors",
    "endpoint_anchors",
    "anchor_birkhoff_sums",
    "tree_birkhoff_sums",
    "cylinder_rows",
    "word_index",
    "index_word",
]

Word = tuple[int, ...]

# Each sweep shrinks the error by sup|g'| / 2 < 1/2 and the start (x + a) / 2
# lies within 1/2 of the root, so 60 sweeps bring any start within 2^-61,
# below one ulp of any root in [1/4, 1] and far below the 1e-14 contract.
_SWEEPS = 60


class BranchSolverError(Exception):
    """Inverse-branch solve failed its residual contract."""


def _check_word(w: Sequence[int]) -> Word:
    word = tuple(int(s) for s in w)
    if any(s not in (0, 1) for s in word):
        raise ValueError(f"word symbols must be 0 or 1, got {w!r}")
    return word


def _solve_branch(spec: PerturbationSpec, a: np.ndarray, x: np.ndarray):
    """Solve 2y + g(y) = x + a for y in [a/2, (a+1)/2], vectorized; returns (y, g'(y)).

    Iterates y <- (x + a - g(y)) / 2 from y = (x + a) / 2 until the sweep
    reproduces y exactly, whose g and g' at y serve the residual and the
    return, or until _SWEEPS sweeps have run and g is evaluated once more.
    """
    target = x + a
    y = 0.5 * target
    for _ in range(_SWEEPS):
        g, gp = g_eval(spec, y)
        nxt = 0.5 * (target - g)
        if np.array_equal(nxt, y):
            break
        y = nxt
    else:
        g, gp = g_eval(spec, y)
    resid = np.abs(2.0 * y + g - target)
    if not np.all(resid < 1e-14):
        raise BranchSolverError(
            f"branch solve residual {np.max(resid):.3e} exceeds 1e-14"
        )
    return y, gp


def inverse_branch(spec: PerturbationSpec, a: int, x):
    """Preimage of x under f in the half selected by symbol a, with |g_a'| = 1/f'.

    x (scalar or array) is a lift coordinate in [0, 1]; the result lies in
    [a/2, (a+1)/2] and satisfies f(y) = x to residual below 1e-14.
    """
    if a not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xv >= 0.0) & (xv <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    y, gp = _solve_branch(spec, np.full_like(xv, float(a)), xv)
    deriv = 1.0 / (2.0 + gp)
    if scalar:
        return float(y[0]), float(deriv[0])
    return y, deriv


def _apply_symbols(spec, symbols_per_step: Iterable, x: np.ndarray):
    """Apply inverse branches right to left; each step's symbols may be an array."""
    y = x
    deriv = np.ones_like(x)
    for syms in symbols_per_step:
        a = np.broadcast_to(np.asarray(syms, dtype=float), y.shape)
        y, gp = _solve_branch(spec, a, y)
        deriv /= 2.0 + gp
    return y, deriv


def apply_word(spec: PerturbationSpec, w: Sequence[int], x):
    """Composed inverse branch g_w(x) and its chain-rule derivative.

    For w = w_1 ... w_n the branches apply right to left, so the image lies
    in the cylinder of w and the derivative is the product of 1/f' along
    the returned point's forward orbit.  The empty word is the identity.
    """
    word = _check_word(w)
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    y, deriv = _apply_symbols(spec, reversed(word), xv)
    if scalar:
        return float(y[0]), float(deriv[0])
    return y, deriv


@dataclass(frozen=True)
class Cylinder:
    """Interval of points whose first n symbols equal the word."""

    word: Word
    lo: float
    hi: float
    anchor: float


def cylinder(spec: PerturbationSpec, w: Sequence[int]) -> Cylinder:
    """Cylinder interval [g_w(0), g_w(1)] with its canonical periodic anchor.

    The anchor is g_{w'}(x_s) where s is the last symbol and x_s the fixed
    point of branch s (x_0 = 0, x_1 = 1); that lands on the cylinder
    endpoint matching s.
    """
    word = _check_word(w)
    if not word:
        return Cylinder((), 0.0, 1.0, 0.0)
    lo, _ = apply_word(spec, word, 0.0)
    hi, _ = apply_word(spec, word, 1.0)
    anchor = lo if word[-1] == 0 else hi
    return Cylinder(word, lo, hi, anchor)


# ---------------------------------------------------------------------------
# level enumeration (vectorized over all 2^n words)
# ---------------------------------------------------------------------------

def word_index(w: Sequence[int]) -> int:
    """Lexicographic index of a word: first symbol is the most significant bit."""
    word = _check_word(w)
    idx = 0
    for s in word:
        idx = (idx << 1) | s
    return idx


def index_word(idx: int, n: int) -> Word:
    """Inverse of word_index at level n."""
    return tuple((idx >> (n - 1 - k)) & 1 for k in range(n))


def level_endpoints(spec: PerturbationSpec, n: int) -> np.ndarray:
    """The 2^n + 1 sorted cylinder endpoints at level n.

    In lexicographic word order, cylinder i at level n is
    [endpoints[i], endpoints[i + 1]].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pts = np.array([0.0, 1.0])
    for _ in range(n):
        left, _ = inverse_branch(spec, 0, pts)
        right, _ = inverse_branch(spec, 1, pts)
        pts = np.concatenate([left, right[1:]])
    return pts


def endpoint_anchors(pts: np.ndarray) -> np.ndarray:
    """Anchors of the cylinders with sorted endpoints pts, in lexicographic order.

    An even-indexed word ends in 0 and is anchored at its left endpoint,
    an odd-indexed one ends in 1 and is anchored at its right endpoint.
    """
    idx = np.arange(pts.size - 1)
    return np.where(idx & 1 == 0, pts[idx], pts[idx + 1])


def level_anchors(spec: PerturbationSpec, n: int) -> np.ndarray:
    """Anchor points of all level-n cylinders in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return endpoint_anchors(level_endpoints(spec, n))


def tree_birkhoff_sums(pts: np.ndarray, fn) -> np.ndarray:
    """Birkhoff sums S_n fn at every anchor of the level-n tree pts = level_endpoints(spec, n).

    Uses f(x_w) = x_{shift w} to share suffix sums across the word tree:
    the level-k sums are fn(anchor) plus the level-(k-1) sums of the
    words with the first symbol dropped, the level-k endpoints being
    pts[::2^(n-k)].  fn must accept arrays.
    """
    n = (pts.size - 1).bit_length() - 1
    if n < 1 or pts.size != (1 << n) + 1:
        raise ValueError("pts must hold the 2^n + 1 endpoints of a level n >= 1")
    sums = np.asarray(fn(endpoint_anchors(pts[:: 1 << (n - 1)])), dtype=float)
    for k in range(2, n + 1):
        anchors = endpoint_anchors(pts[:: 1 << (n - k)])
        idx = np.arange(1 << k) & ((1 << (k - 1)) - 1)
        sums = np.asarray(fn(anchors), dtype=float) + sums[idx]
    return sums


def anchor_birkhoff_sums(spec: PerturbationSpec, n: int, fn) -> np.ndarray:
    """Birkhoff sums S_n fn at every level-n anchor, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tree_birkhoff_sums(level_endpoints(spec, n), fn)


def cylinder_rows(spec: PerturbationSpec, n: int):
    """Level-n cylinder table: (word, lo, hi, anchor, deriv_at_anchor) rows.

    deriv_at_anchor is the reciprocal n-step expansion 1 / (f^n)'(anchor),
    the chain-rule derivative of the composed inverse branch along the
    anchor's forward orbit.
    """
    if not 1 <= n <= 16:
        raise ValueError("n must be in 1..16")
    pts = level_endpoints(spec, n)
    anchors = endpoint_anchors(pts)
    sums = tree_birkhoff_sums(
        pts, lambda x: np.log(f_eval(spec, np.asarray(x) % 1.0)[1])
    )
    derivs = np.exp(-sums)
    rows = []
    for i in range(1 << n):
        word = "".join(str(b) for b in index_word(i, n))
        rows.append((word, float(pts[i]), float(pts[i + 1]), float(anchors[i]), float(derivs[i])))
    return rows
