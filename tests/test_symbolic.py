"""Inverse branches, word composition, and cylinder tilings."""

import contextlib
import math
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solenoidlab import symbolic
from solenoidlab.circle_map import (
    BUMP_KINDS,
    PerturbationSpec,
    _MAX_ORDER,
    circle_dist,
    coefficient_table,
    f_eval,
    g_eval,
    linear_spec,
)
from solenoidlab.thermo import cylinder_levels, mme_potential, nodes, solve_equilibrium
from solenoidlab.twisted import zeta_table
from solenoidlab.symbolic import (
    BranchSolverError,
    anchor_birkhoff_sums,
    apply_word,
    endpoint_anchors,
    index_word,
    level_endpoints,
    log_expansion_sums,
    preimage_tree,
    tree_birkhoff_sums,
)


@pytest.fixture(scope="module")
def spec():
    return coefficient_table(5)


def test_inverse_branch_linear_cases():
    lin = linear_spec()
    y, d = apply_word(lin, (0,), 0.5)
    assert y == pytest.approx(0.25, abs=1e-15)
    assert d == pytest.approx(0.5, abs=1e-15)
    y, d = apply_word(lin, (1,), 0.0)
    assert y == pytest.approx(0.5, abs=1e-15)
    assert d == pytest.approx(0.5, abs=1e-15)


def test_inverse_branch_residual_contract(spec):
    rng = np.random.default_rng(23)
    x = rng.random(5000)
    for a in (0, 1):
        y, _ = apply_word(spec, (a,), x)
        fx, _ = f_eval(spec, y)
        resid = np.abs(fx - x)
        resid = np.minimum(resid, 1.0 - resid)
        assert resid.max() < 1e-14
        assert y.min() >= 0.5 * a
        assert y.max() <= 0.5 * (a + 1)


def test_inverse_branch_rejects_nan_and_out_of_range(spec):
    for x in (np.nan, -1e-12, 1.0 + 1e-12):
        with pytest.raises(ValueError):
            apply_word(spec, (0,), x)
    with pytest.raises(ValueError):
        apply_word(spec, (1,), np.array([0.2, np.nan, 0.7]))
    for x in (np.nan, 1.5):
        with pytest.raises(ValueError):
            apply_word(spec, (0,), x)
    # symbols must equal 0 or 1, not truncate to them
    with pytest.raises(ValueError):
        apply_word(spec, (1.9,), 0.3)
    with pytest.raises(ValueError):
        apply_word(spec, (0.7, 1), [0.0, 1.0])


def test_apply_word_nan_fails_residual_contract(spec):
    with pytest.raises(BranchSolverError):
        symbolic._solve_branch(spec, 1, np.array([np.nan]))


def test_solver_raises_when_iteration_cannot_converge(spec, monkeypatch):
    # g(y) = -4y turns the sweep into y <- (x + a)/2 + 2y, which diverges
    def runaway(_spec, x):
        x = np.asarray(x, dtype=float)
        return -4.0 * x, np.full_like(x, -4.0)

    monkeypatch.setattr(symbolic, "g_eval", runaway)
    with pytest.raises(BranchSolverError):
        apply_word(spec, (0,), 0.3)


def test_apply_word_empty(spec):
    y, d = apply_word(spec, (), 0.37)
    assert y == 0.37
    assert d == 1.0


def test_apply_word_linear_derivative():
    lin = linear_spec()
    for word in [(0,), (1, 0), (0, 1, 1), (1, 0, 1, 0, 1)]:
        _, d = apply_word(lin, word, 0.3)
        assert d == pytest.approx(2.0 ** -len(word), rel=1e-14)


def test_apply_word_matches_finite_differences(spec):
    rng = np.random.default_rng(2)
    h = 1e-7
    for _ in range(20):
        word = tuple(rng.integers(0, 2, size=rng.integers(1, 9)))
        x = rng.random() * 0.98 + 0.01
        _, deriv = apply_word(spec, word, x)
        lo, _ = apply_word(spec, word, x - h)
        hi, _ = apply_word(spec, word, x + h)
        fd = (hi - lo) / (2 * h)
        assert fd == pytest.approx(deriv, rel=1e-6)


_TREE_SPECS = [
    pytest.param(kind, n_max, id=f"{kind}-{n_max}")
    for kind in ("exp", "smoothstep")
    for n_max in (1, 3, 5, 8)
]


@pytest.mark.parametrize("kind, n_max", _TREE_SPECS)
def test_branch_fixed_points_exact(kind, n_max):
    spec = coefficient_table(n_max, bump_kind=kind)
    assert apply_word(spec, (0,), 0.0)[0] == 0.0
    assert apply_word(spec, (1,), 1.0)[0] == 1.0


@pytest.mark.parametrize("kind, n_max", _TREE_SPECS)
def test_level_tree_slices_are_coarser_levels(kind, n_max):
    spec = coefficient_table(n_max, bump_kind=kind)
    tree = level_endpoints(spec, 14)
    for k in range(15):
        assert np.array_equal(tree[:: 1 << (14 - k)], level_endpoints(spec, k))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _reference_levels(spec, n):
    """Endpoints of levels 0..n by the per-level loop that preceded preimage_tree."""
    levels = [np.array([0.0, 1.0])]
    for _ in range(n):
        left, _ = apply_word(spec, (0,), levels[-1])
        right, _ = apply_word(spec, (1,), levels[-1])
        levels.append(np.concatenate([left, right[1:]]))
    return levels


def _reference_zeta_derivs(spec, context, n):
    """zeta_table's composition before preimage_tree: one symbol array per step.

    Word index idx carries the anchor symbol in bit 0 and b' in bits n..1;
    the steps apply b' right to left and then context' right to left.
    """
    idx = np.arange(1 << (n + 1))
    y = (idx & 1).astype(float)
    deriv = np.ones_like(y)
    steps = [(idx >> bit) & 1 for bit in range(1, n + 1)] + list(reversed(context[:-1]))
    for syms in steps:
        y, gp = symbolic._solve_branch(spec, np.asarray(syms, dtype=float), y)
        deriv /= 2.0 + gp
    return deriv


@pytest.mark.parametrize("kind, n_max", _TREE_SPECS)
def test_level_endpoints_match_the_per_level_loop_bit_for_bit(kind, n_max):
    spec = coefficient_table(n_max, bump_kind=kind)
    for n, ref in enumerate(_reference_levels(spec, 16)):
        assert np.array_equal(_bits(level_endpoints(spec, n)), _bits(ref)), n


@pytest.mark.parametrize("kind, n_max", _TREE_SPECS)
def test_zeta_table_matches_per_step_symbol_arrays_bit_for_bit(kind, n_max):
    # zeta_table reads only the spec and the exponent; at exponent 0 its
    # values are the composed derivatives themselves
    spec = coefficient_table(n_max, bump_kind=kind)
    eq = SimpleNamespace(spec=spec, lyapunov=0.0)
    rng = np.random.default_rng(n_max)
    for n in range(1, 15):
        for _ in range(2):
            context = tuple(int(s) for s in rng.integers(0, 2, n + 1))
            ref = _reference_zeta_derivs(spec, context, n)
            assert np.array_equal(_bits(zeta_table(eq, context, n).values), _bits(ref)), context


def test_preimage_tree_shapes_and_checks(spec):
    y, deriv = preimage_tree(spec, 0.3, 0)
    assert y.shape == deriv.shape == (1,) and y[0] == 0.3 and deriv[0] == 1.0
    y, deriv = preimage_tree(spec, [0.0, 0.5, 1.0], 4)
    assert y.shape == deriv.shape == (16, 3)
    assert np.all(np.diff(y[:, 0]) > 0)
    for x in (np.nan, -1e-12, [0.5, 1.0 + 1e-12]):
        with pytest.raises(ValueError):
            preimage_tree(spec, x, 2)
    with pytest.raises(ValueError):
        preimage_tree(spec, 0.5, -1)


def _cylinder(spec, word):
    """[lo, hi] = g_w([0, 1]) of a non-empty word."""
    lo, hi = apply_word(spec, word, [0.0, 1.0])[0]
    return lo, hi


def _index(word):
    """Lexicographic index of a word: the first symbol is the most significant bit."""
    return int("".join(map(str, word)), 2)


def test_cylinder_linear_01():
    pts = level_endpoints(linear_spec(), 2)
    lo, hi, anchor = pts[1], pts[2], endpoint_anchors(pts)[1]
    assert lo == pytest.approx(0.25, abs=1e-15)
    assert hi == pytest.approx(0.5, abs=1e-15)
    assert anchor == pytest.approx(hi, abs=1e-15)


def test_cylinder_length_bound(spec):
    rng = np.random.default_rng(4)
    # kappa = 1 / inf f'
    thetas = np.linspace(0, 1, 1 << 14, endpoint=False)
    _, fp = f_eval(spec, thetas)
    kappa = 1.0 / fp.min()
    for _ in range(25):
        word = tuple(rng.integers(0, 2, size=rng.integers(1, 13)))
        lo, hi = _cylinder(spec, word)
        anchor = endpoint_anchors(level_endpoints(spec, len(word)))[_index(word)]
        assert hi - lo <= kappa ** len(word) * (1 + 1e-12)
        assert lo <= anchor <= hi


@pytest.mark.parametrize("n", [1, 4, 8, 12, 16])
def test_tiling(spec, n):
    pts = level_endpoints(spec, n)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    lengths = np.diff(pts)
    assert np.all(lengths > 0)
    assert abs(lengths.sum() - 1.0) < 1e-12


def test_refinement(spec):
    # U_{a w} = g_a(U_w) endpoint-wise
    rng = np.random.default_rng(9)
    for _ in range(20):
        word = tuple(rng.integers(0, 2, size=rng.integers(1, 10)))
        a = int(rng.integers(0, 2))
        child = _cylinder(spec, (a,) + word)
        parent = _cylinder(spec, word)
        lo, _ = apply_word(spec, (a,), parent[0])
        hi, _ = apply_word(spec, (a,), parent[1])
        assert child[0] == pytest.approx(lo, abs=1e-12)
        assert child[1] == pytest.approx(hi, abs=1e-12)


def test_expansion(spec):
    # f maps a cylinder onto the cylinder of the shifted word: on the lift,
    # 2x + g(x) carries [lo, hi] onto [shifted.lo + w0, shifted.hi + w0]
    rng = np.random.default_rng(14)
    for _ in range(20):
        word = tuple(rng.integers(0, 2, size=rng.integers(2, 10)))
        for x, target in zip(_cylinder(spec, word), _cylinder(spec, word[1:])):
            lift = 2.0 * x + g_eval(spec, x)[0]
            assert lift - word[0] == pytest.approx(target, abs=1e-12)


def test_level_anchor_consistency(spec):
    n = 6
    anchors = endpoint_anchors(level_endpoints(spec, n))
    for idx in (0, 5, 21, 63):
        word = index_word(idx, n)
        # a word anchors at the fixed point of its last symbol's branch, pulled back by g_w
        anchor, _ = apply_word(spec, word, float(word[-1]))
        assert anchors[idx] == pytest.approx(anchor, abs=1e-13)


def test_anchor_birkhoff_matches_direct_iteration(spec):
    n = 8
    fn = lambda pts: np.log(f_eval(spec, np.asarray(pts) % 1.0)[1])
    sums = anchor_birkhoff_sums(spec, n, fn)
    anchors = endpoint_anchors(level_endpoints(spec, n))
    rng = np.random.default_rng(31)
    for idx in rng.integers(0, 1 << n, size=12):
        x = anchors[idx]
        total = 0.0
        for _ in range(n):
            fx, fp = f_eval(spec, x % 1.0)
            total += np.log(fp)
            x = fx
        assert sums[idx] == pytest.approx(total, abs=1e-11)


@pytest.mark.parametrize("kind, n_max", _TREE_SPECS)
def test_one_tree_pass_matches_each_sliced_level_bit_for_bit(kind, n_max):
    spec = coefficient_table(n_max, bump_kind=kind)
    for n in range(1, 15):
        pts = level_endpoints(spec, n)
        levels = log_expansion_sums(spec, pts)
        assert [s.shape for s in levels] == [(1 << k,) for k in range(1, n + 1)]
        for k in range(1, n + 1):
            alone = log_expansion_sums(spec, pts[:: 1 << (n - k)])[-1]
            assert np.array_equal(_bits(levels[k - 1]), _bits(alone)), (n, k)


def test_tree_birkhoff_sums_of_a_constant_count_the_steps():
    levels = tree_birkhoff_sums(level_endpoints(linear_spec(), 5), np.ones_like)
    assert [list(s) for s in levels] == [[float(k)] * (1 << k) for k in range(1, 6)]


# ---------------------------------------------------------------------------
# property tests (hypothesis, derandomized so every run draws the same cases)
# ---------------------------------------------------------------------------

_PROPERTY = settings(derandomize=True, deadline=None, database=None)
_SPECS = {kind: coefficient_table(5, kind) for kind in BUMP_KINDS}


@lru_cache(maxsize=None)
def _tree_anchors(kind, n):
    return endpoint_anchors(level_endpoints(_SPECS[kind], n))


def _near_bump(kind, n, u):
    # image of a point inside the order-n bump, so one preimage sees g != 0
    return f_eval(_SPECS[kind], 1.0 / (2.0**n - 1.0) + u * 8.0**-n)[0]


_X = st.one_of(
    st.floats(0.0, 1.0),
    st.builds(_near_bump, st.sampled_from(BUMP_KINDS), st.integers(2, 5), st.floats(-0.5, 0.5)),
)


@_PROPERTY
@given(kind=st.sampled_from(BUMP_KINDS), a=st.sampled_from((0, 1)), x=_X)
def test_property_inverse_branch_inverts_f(kind, a, x):
    y, _ = apply_word(_SPECS[kind], (a,), x)
    assert 0.5 * a <= y <= 0.5 * (a + 1)
    assert circle_dist(f_eval(_SPECS[kind], y)[0], x) < 1e-14


@_PROPERTY
@given(kind=st.sampled_from(BUMP_KINDS), word=st.lists(st.sampled_from((0, 1)), min_size=1, max_size=12))
def test_property_tree_anchor_is_cylinder_anchor(kind, word):
    anchors = _tree_anchors(kind, len(word))
    assert anchors[_index(word)] == _cylinder(_SPECS[kind], word)[word[-1]]


@_PROPERTY
@given(kind=st.sampled_from(BUMP_KINDS), n=st.integers(0, 6), x=_X)
def test_property_tree_rows_are_composed_words(kind, n, x):
    cols = np.array([x, 0.0, 1.0])
    y, deriv = preimage_tree(_SPECS[kind], cols, n)
    for i in range(1 << n):
        wy, wd = apply_word(_SPECS[kind], index_word(i, n), cols)
        assert np.array_equal(_bits(y[i]), _bits(wy))
        assert np.array_equal(_bits(deriv[i]), _bits(wd))


@_PROPERTY
@given(kind=st.sampled_from(BUMP_KINDS), word=st.lists(st.sampled_from((0, 1)), min_size=1, max_size=12))
def test_property_cylinder_children_tile_the_parent_exactly(kind, word):
    # g_0(0) = 0.0, g_1(1) = 1.0 and g_0(1) = g_1(0) bit for bit, so the
    # children of w share its endpoints and their common one exactly
    parent = _cylinder(_SPECS[kind], word)
    left, right = (_cylinder(_SPECS[kind], word + [a]) for a in (0, 1))
    assert left[0] == parent[0] and right[1] == parent[1]
    assert left[1] == right[0]
    assert parent[0] < left[1] < parent[1]


@_PROPERTY
@given(kind=st.sampled_from(BUMP_KINDS), n_max=st.sampled_from((1, 3, 5, 8)), n=st.integers(2, 14))
def test_property_level_tree_tiles_and_f_maps_it_onto_the_coarser_tree(kind, n_max, n):
    # f carries level-n endpoint i onto level-(n-1) endpoint i mod 2^(n-1);
    # this evaluates f at exactly 1/2 and 1, where the reduction decides the answer
    spec = coefficient_table(n_max, bump_kind=kind)
    pts = level_endpoints(spec, n)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)
    coarse = pts[::2]
    i = np.arange(pts.size)
    assert np.all(circle_dist(f_eval(spec, pts)[0], coarse[i % (1 << (n - 1))]) < 1e-14)


# ---------------------------------------------------------------------------
# the per-point stop against the all-points solve it replaced
# ---------------------------------------------------------------------------

def _solve_branch_all_points(spec, a, x):
    """_solve_branch before the per-point stop: every point is swept again
    until one sweep reproduces all of them."""
    target = x + a
    y = 0.5 * target
    for _ in range(symbolic._SWEEPS):
        g, gp = g_eval(spec, y)
        nxt = 0.5 * (target - g)
        if np.array_equal(nxt, y):
            break
        y = nxt
    else:
        g, gp = g_eval(spec, y)
    resid = np.abs(2.0 * y + g - target)
    if not np.all(resid < 1e-14):
        raise BranchSolverError(f"branch solve residual {np.max(resid):.3e} exceeds 1e-14")
    return y, gp


def _all_points_solve():
    return mock.patch.object(symbolic, "_solve_branch", _solve_branch_all_points)


@_PROPERTY
@given(
    kind=st.sampled_from(BUMP_KINDS),
    n_max=st.sampled_from((1, 2, 5, 8, 18)),
    n=st.integers(0, 7),
    word=st.lists(st.sampled_from((0, 1)), max_size=12),
    x=_X,
)
def test_property_tree_and_words_match_the_all_points_solve(kind, n_max, n, word, x):
    spec = coefficient_table(n_max, kind)
    cols = np.array([x, 0.0, 0.5, 2.0 / 3.0, 1.0])
    got = (*preimage_tree(spec, cols, n), *apply_word(spec, word, cols))
    with _all_points_solve():
        want = (*preimage_tree(spec, cols, n), *apply_word(spec, word, cols))
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("kind, n_max", _TREE_SPECS)
def test_deep_trees_match_the_all_points_solve(kind, n_max):
    spec = coefficient_table(n_max, kind)
    got = preimage_tree(spec, [0.0, 1.0], 12)
    with _all_points_solve():
        want = preimage_tree(spec, [0.0, 1.0], 12)
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


def test_a_nan_coefficient_fails_the_residual_contract_as_before():
    # alpha_2 = NaN passes the spec's checks (NaN compares false), and g is NaN
    # on the order-2 bump, where the branch-0 preimage of 2/3 lies
    nan_spec = PerturbationSpec(2, coefficient_table(2).betas, (math.nan,))
    x = [0.1, 2.0 / 3.0]
    for patch in (contextlib.nullcontext(), _all_points_solve()):
        with patch:
            with pytest.raises(BranchSolverError):
                preimage_tree(nan_spec, x, 1)
            with pytest.raises(BranchSolverError):
                apply_word(nan_spec, (1, 0), x)


def test_a_level_evaluates_g_about_twice_a_node(monkeypatch):
    # every node is evaluated once and only those the sweep moves, near a
    # bump, again: 2.09 evaluations a node, where sweeping every node until
    # the slowest settled took 6.0
    spec = coefficient_table(5)
    points = []
    monkeypatch.setattr(symbolic, "g_eval", lambda s, x: points.append(np.size(x)) or g_eval(s, x))
    preimage_tree(spec, nodes(1 << 14), 1)
    assert sum(points) <= 2.2 * (1 << 14)


@pytest.mark.parametrize("a", (0, 1))
def test_branch_solve_peak_memory_per_point(a):
    # the all-points solve peaked at 81.6 (branch 0) and 65.1 (branch 1)
    # bytes a point on these 2^14 nodes; the per-point stop holds 48
    spec = coefficient_table(5)
    x = nodes(1 << 14)
    symbolic._solve_branch(spec, a, x)  # builds g's term table outside the trace
    tracemalloc.start()
    try:
        symbolic._solve_branch(spec, a, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.size <= 65.0


# ---------------------------------------------------------------------------
# the shared x = 0 tree
# ---------------------------------------------------------------------------

_ZERO_SPECS = [
    pytest.param(kind, n_max, id=f"{kind}-{n_max}")
    for kind in BUMP_KINDS
    for n_max in (1, 5, _MAX_ORDER)
]


def _assert_zero_level(spec, n, ref):
    """_zero_tree and level_endpoints at level n against preimage_tree(spec, 0.0, n), bit for bit."""
    y, deriv = symbolic._zero_tree(spec, n)
    assert np.array_equal(_bits(y), _bits(ref[0])), n
    assert np.array_equal(_bits(deriv), _bits(ref[1])), n
    assert np.array_equal(_bits(level_endpoints(spec, n)), _bits(np.append(ref[0], 1.0))), n


@pytest.mark.parametrize("kind, n_max", _ZERO_SPECS)
def test_the_zero_tree_is_preimage_tree_at_zero_in_any_call_order(kind, n_max):
    spec = coefficient_table(n_max, kind)
    order = (14, 3, 12, 0, 16, 8)
    refs = {n: preimage_tree(spec, 0.0, n) for n in order}
    for n in order:
        _assert_zero_level(spec, n, refs[n])
    # grown once, to the deepest level asked for, and kept there
    assert symbolic._zero_memo(spec)[0] == 16


def test_the_zero_tree_follows_a_spec_change():
    specs = [coefficient_table(5), coefficient_table(5, "smoothstep"), coefficient_table(8)]
    refs = {(s, n): preimage_tree(s, 0.0, n) for s in specs for n in (4, 10)}
    for spec in specs + specs[::-1]:
        for n in (10, 4):
            _assert_zero_level(spec, n, refs[spec, n])


def test_the_zero_tree_hands_out_nothing_that_writes_into_it(spec):
    want = [_bits(a).copy() for a in (*symbolic._zero_tree(spec, 10), level_endpoints(spec, 10))]
    for n in (10, 12):  # the level the memo holds, then a slice of a deeper one
        y, deriv = symbolic._zero_tree(spec, n)
        for view in (y, level_endpoints(spec, n)):
            with pytest.raises(ValueError):
                view[0] = 0.5
        deriv[:] = 7.0
    got = [*symbolic._zero_tree(spec, 10), level_endpoints(spec, 10)]
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), b)
    assert not symbolic._zero_memo(spec)[1].flags.writeable


@pytest.mark.parametrize("step", ("build", "find it empty"))
def test_each_test_starts_without_a_zero_tree(spec, step):
    # the conftest fixture empties the memo before each test; the first case
    # leaves one built, which the second must not see
    assert symbolic._zero_memo.cache_info().currsize == 0
    level_endpoints(spec, 6)
    assert symbolic._zero_memo.cache_info().currsize == 1


def test_the_coding_commands_solve_one_level_14_tree(monkeypatch):
    # gibbs (levels 8, 10, 12 and the level-8 cylinders.csv), deviations
    # (levels 6..14) and the level-12 phase table, as the coding commands run
    # them at defaults: one tree of 2 + 4 + ... + 2^14 = 32,766 solve points,
    # where a tree per call solved 57,846
    spec = coefficient_table(5)
    eq = solve_equilibrium(spec, mme_potential(1 << 10))
    sizes = []
    real = symbolic._solve_branch
    monkeypatch.setattr(
        symbolic, "_solve_branch", lambda s, a, x: sizes.append(np.size(x)) or real(s, a, x)
    )
    cylinder_levels(eq, [8, 10, 12])
    symbolic.cylinder_rows(spec, 8)
    cylinder_levels(eq, list(range(6, 15)))
    context = (0, 1) * 6 + (0,)
    zeta_table(eq, context, 12)
    # the phase table continues its 2^13 entries through the 12 context symbols
    context_points = 12 * (1 << 13)
    assert sum(sizes) - context_points <= (1 << 15) - 2
