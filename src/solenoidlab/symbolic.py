"""Two-symbol coding of the circle factor.

The map f is a full degree-2 covering: branch 0 carries [0, 1/2] onto
[0, 1] and branch 1 carries [1/2, 1] onto [0, 1], so every finite 0/1
word is admissible.  Inverse branches are solved on the lift by the
contraction y <- (x + a - g(y)) / 2, words compose right to left, and the
level-n cylinders tile the interval in lexicographic = spatial order.

The contraction factor is sup|g'| / 2 < 1/2, because PerturbationSpec
enforces the C^1 budget sup|g'| < 1, so each sweep at least halves the
distance to the root and a fixed number of sweeps reaches it to the last
bit.  Each point stops at its own exact fixed point: off the bumps g = 0
and the first sweep settles it, so a solve evaluates g about twice a
point, not once a sweep for every point until the slowest settles.  The
branches fix the cylinder endpoints exactly, g_0(0) = 0.0 and
g_1(1) = 1.0, so the level-k endpoints are every 2^(n-k)-th level-n
endpoint, bit for bit: one level-n tree serves every coarser level.  So
the x = 0 tree f^-n(0) is built once per process and spec: a read-only
memo keeps only its deepest level's endpoints, grows them by
preimage_tree's own per-level step, and every level-n request slices it
(_zero_endpoints).

Boundary convention: theta = 1/2 belongs to symbol 1 and theta = 0 to
symbol 0; cylinder work happens on the closed interval [0, 1] so the
right endpoint 1 (the circle point 0) is a legal lift coordinate.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .circle_map import PerturbationSpec, f_eval, g_eval

__all__ = [
    "Word",
    "BranchSolverError",
    "apply_word",
    "preimage_tree",
    "level_endpoints",
    "endpoint_anchors",
    "anchor_birkhoff_sums",
    "tree_birkhoff_sums",
    "log_expansion_sums",
    "cylinder_rows",
    "index_word",
]

Word = tuple[int, ...]

# Each sweep shrinks the error by sup|g'| / 2 < 1/2 and the start (x + a) / 2
# lies within 1/2 of the root, so 60 sweeps bring any start within 2^-61,
# below one ulp of any root in [1/4, 1] and far below the 1e-14 contract.
_SWEEPS = 60

# The deepest level whose 2^n cylinders are enumerated as one tree.
_MAX_LEVEL = 16


class BranchSolverError(Exception):
    """Inverse-branch solve failed its residual contract."""


def _check_word(w: Sequence[int]) -> Word:
    word = tuple(w)
    if any(s not in (0, 1) for s in word):
        raise ValueError(f"word symbols must be 0 or 1, got {w!r}")
    return tuple(int(s) for s in word)


def _solve_branch(spec: PerturbationSpec, a: int, x: np.ndarray):
    """Solve 2y + g(y) = x + a for y in [a/2, (a+1)/2], vectorized; returns (y, g'(y)).

    Iterates y <- (x + a - g(y)) / 2 from y = (x + a) / 2, each point on its
    own: the first sweep evaluates g at every point, and each later sweep
    only at the points the last one moved.  A point stops when its sweep
    reproduces it exactly, so its g and g' at y serve the residual and the
    return; after _SWEEPS sweeps g is evaluated once more at the points still
    moving.  A reproduced point is a fixed point of the sweep, so the sweeps
    a slower point still needs would leave its bits as they are: equal
    values are equal bits here, since x + a is never -0.0 and so neither is
    (x + a) / 2 or (x + a - g) / 2.
    """
    target = np.asarray(x + a, dtype=float)
    flat = target.ravel()
    y = 0.5 * flat
    g, gp = g_eval(spec, y)
    nxt = 0.5 * (flat - g)
    moving = np.flatnonzero(nxt != y)
    y = nxt
    for _ in range(_SWEEPS - 1):
        if not moving.size:
            break
        moving = _sweep(spec, flat, y, g, gp, moving)
    if moving.size:
        g[moving], gp[moving] = g_eval(spec, y[moving])
    g += 2.0 * y  # the residual |2y + g - (x + a)|, formed in g's buffer
    g -= flat
    resid = np.abs(g, out=g)
    if not np.all(resid < 1e-14):
        raise BranchSolverError(
            f"branch solve residual {np.max(resid):.3e} exceeds 1e-14"
        )
    return y.reshape(target.shape), gp.reshape(target.shape)


def _sweep(spec: PerturbationSpec, target, y, g, gp, moving):
    """One sweep of _solve_branch over the points moving, in place; returns those it moved."""
    ym = y[moving]
    gm, gpm = g_eval(spec, ym)
    g[moving], gp[moving] = gm, gpm
    nxt = 0.5 * (target[moving] - gm)
    moved = nxt != ym
    moving = moving[moved]
    y[moving] = nxt[moved]
    return moving


def _identity(x):
    """The empty word at x: the points, checked to lie in [0, 1], with unit derivatives."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xv >= 0.0) & (xv <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    return xv, np.ones_like(xv)


def _compose(spec: PerturbationSpec, word: Word, y: np.ndarray, deriv: np.ndarray):
    """Apply the branches of word right to left to y, dividing deriv by f' at each step."""
    for a in reversed(word):
        y, gp = _solve_branch(spec, a, y)
        deriv = deriv / (2.0 + gp)
    return y, deriv


def apply_word(spec: PerturbationSpec, w: Sequence[int], x):
    """Composed inverse branch g_w(x) and its chain-rule derivative.

    x holds lift coordinates in [0, 1] in any shape, and both results come
    back in the same shape (NumPy floats for a scalar).  For w = w_1 ... w_n
    the branches apply right to left, so the image lies in the cylinder of w
    and the derivative is the product of 1/f' along the returned point's
    forward orbit.  The empty word is the identity.
    """
    y, deriv = _compose(spec, _check_word(w), *_identity(x))
    return y.reshape(np.shape(x))[()], deriv.reshape(np.shape(x))[()]


def _grow(spec: PerturbationSpec, y: np.ndarray, deriv: np.ndarray | None = None):
    """One level of preimage_tree: branch 0, then branch 1, solved on every row of y.

    Returns the new rows and, when deriv is given, their chain-rule derivatives.
    """
    rows = y.size
    ys = np.empty(2 * rows)
    derivs = None if deriv is None else np.empty(2 * rows)
    for a in (0, 1):
        ys[a * rows:(a + 1) * rows], gp = _solve_branch(spec, a, y)
        if deriv is not None:
            gp += 2.0
            np.divide(deriv, gp, out=derivs[a * rows:(a + 1) * rows])
    return ys, derivs


def preimage_tree(spec: PerturbationSpec, x, n: int):
    """g_w(x) and its chain-rule derivative for every word w of length n.

    Row i, one column per entry of x, is apply_word(spec, index_word(i, n), x)
    bit for bit; each level solves branch 0, then branch 1, on the last rows.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    y, deriv = _identity(x)
    for _ in range(n):
        y, deriv = _grow(spec, y, deriv)
    shape = (1 << n,) + np.shape(x)
    return y.reshape(shape), deriv.reshape(shape)


@functools.lru_cache(maxsize=1)
def _zero_memo(spec: PerturbationSpec) -> list:
    """[level, endpoints]: the deepest x = 0 tree grown so far for the last spec.

    The endpoints are the tree's rows and a last 1.0, read-only.  Only
    _zero_endpoints writes the memo, and mu_hat's thread pool never reaches
    it, because that pool's passes call only NumPy.
    """
    return [0, _read_only(np.array([0.0, 1.0]))]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _zero_endpoints(spec: PerturbationSpec, n: int) -> np.ndarray:
    """The rows of preimage_tree(spec, 0.0, n), flattened, bit for bit, and a last 1.0.

    One tree per spec: the memo keeps only its deepest level and grows it
    one _grow step at a time.  Level n is every 2^(top-n)-th row of level
    top, because the extra symbols are 0s and g_0(0) = 0.0.  The result is a
    read-only view of the memo, so a caller holds no copy of the tree.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    memo = _zero_memo(spec)
    while memo[0] < n:
        rows, _ = _grow(spec, memo[1][:-1])
        memo[:] = memo[0] + 1, _read_only(np.append(rows, 1.0))
    return memo[1][:: 1 << (memo[0] - n)]


def _zero_tree(spec: PerturbationSpec, n: int):
    """preimage_tree(spec, 0.0, n), flattened, bit for bit: a read-only y and a fresh deriv.

    Level k's rows are every 2^(n-k)-th level-n row, so one g_eval over the
    level-n rows gives f' = 2 + g' at every level, the g' each solve
    returned; the derivatives then divide level by level as in _grow.
    """
    y = _zero_endpoints(spec, n)[:-1]
    fp = g_eval(spec, y)[1]
    fp += 2.0
    deriv = np.ones(1)
    for k in range(1, n + 1):
        deriv = np.tile(deriv, 2) / fp[:: 1 << (n - k)]
    return y, deriv


# ---------------------------------------------------------------------------
# level enumeration (vectorized over all 2^n words)
# ---------------------------------------------------------------------------

def index_word(idx: int, n: int) -> Word:
    """Word of length n at lexicographic index idx: the first symbol is the most significant bit."""
    return tuple((idx >> (n - 1 - k)) & 1 for k in range(n))


def level_endpoints(spec: PerturbationSpec, n: int) -> np.ndarray:
    """The 2^n + 1 sorted cylinder endpoints at level n, a read-only view of one shared tree.

    In lexicographic word order, cylinder i at level n is
    [endpoints[i], endpoints[i + 1]]; the left endpoints are f^-n(0).
    Raises ValueError above the enumeration cap _MAX_LEVEL, before any solve.
    """
    if n > _MAX_LEVEL:
        raise ValueError(f"n must be at most {_MAX_LEVEL}")
    return _zero_endpoints(spec, n)


def endpoint_anchors(pts: np.ndarray) -> np.ndarray:
    """Anchors of the cylinders with sorted endpoints pts, in lexicographic order.

    An even-indexed word ends in 0 and is anchored at its left endpoint,
    an odd-indexed one ends in 1 and is anchored at its right endpoint.
    """
    idx = np.arange(pts.size - 1)
    return np.where(idx & 1 == 0, pts[idx], pts[idx + 1])


def tree_birkhoff_sums(pts: np.ndarray, fn) -> list[np.ndarray]:
    """Birkhoff sums S_k fn at every level-k anchor of the tree pts = level_endpoints(spec, n).

    Entry k - 1 holds the level-k sums, k = 1..n, from one pass over the
    tree.  Uses f(x_w) = x_{shift w} to share suffix sums across the word
    tree: the level-k sums are fn(anchor) plus the level-(k-1) sums of the
    words with the first symbol dropped, the level-k endpoints being
    pts[::2^(n-k)].  fn must accept arrays.
    """
    n = (pts.size - 1).bit_length() - 1
    if n < 1 or pts.size != (1 << n) + 1:
        raise ValueError("pts must hold the 2^n + 1 endpoints of a level n >= 1")
    levels = [np.asarray(fn(endpoint_anchors(pts[:: 1 << (n - 1)])), dtype=float)]
    for k in range(2, n + 1):
        anchors = endpoint_anchors(pts[:: 1 << (n - k)])
        idx = np.arange(1 << k) & ((1 << (k - 1)) - 1)
        levels.append(np.asarray(fn(anchors), dtype=float) + levels[-1][idx])
    return levels


def anchor_birkhoff_sums(spec: PerturbationSpec, n: int, fn) -> np.ndarray:
    """S_n fn at the level-n anchors; kept only because the benchmark's tracer wraps it by name."""
    return tree_birkhoff_sums(level_endpoints(spec, n), fn)[-1]


def log_expansion_sums(spec: PerturbationSpec, pts: np.ndarray) -> list[np.ndarray]:
    """S_k ln f' at every level-k anchor of the tree pts, at entry k - 1, as tree_birkhoff_sums."""
    return tree_birkhoff_sums(pts, lambda x: np.log(f_eval(spec, x)[1]))


def cylinder_rows(spec: PerturbationSpec, n: int):
    """Level-n cylinder table: (word, lo, hi, anchor, deriv_at_anchor) rows.

    deriv_at_anchor is the reciprocal n-step expansion 1 / (f^n)'(anchor),
    the chain-rule derivative of the composed inverse branch along the
    anchor's forward orbit.
    """
    pts = level_endpoints(spec, n)
    anchors = endpoint_anchors(pts)
    derivs = np.exp(-log_expansion_sums(spec, pts)[-1])
    rows = []
    for i in range(1 << n):
        word = "".join(str(b) for b in index_word(i, n))
        rows.append((word, float(pts[i]), float(pts[i + 1]), float(anchors[i]), float(derivs[i])))
    return rows
