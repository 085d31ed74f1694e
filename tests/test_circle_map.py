"""Checks for the coefficient table, bump sum, and exact lattice geometry."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solenoidlab import circle_map
from solenoidlab.circle_map import (
    BUMP_KINDS,
    LatticeReport,
    PerturbationSpec,
    PeriodicityError,
    _MAX_ORDER,
    _mod1,
    bump_chi,
    circle_dist,
    coefficient_table,
    f_eval,
    g_eval,
    linear_spec,
    lyapunov_target,
    verify_lattice,
)
from solenoidlab import solenoid
from solenoidlab.solenoid import _QUARTER_PI_INV, periodic_orbit, push_forward

# alpha_2 evaluated once at 60 digits and frozen; it doubles as the
# regression constant for the coefficient table.
ALPHA_2 = -0.00024141033058467038
E_BETA_2 = 0.6930868243345718


@pytest.fixture(scope="module")
def spec():
    return coefficient_table(5)


def test_table_n_max_1_is_empty():
    spec = coefficient_table(1)
    assert spec.betas == ()
    assert spec.alphas == ()
    assert spec == linear_spec()


def test_table_order_stops_at_the_last_nonzero_alpha():
    # alpha_18 = -1e-323 is the last nonzero double, and the bound on |alpha_19|
    # underflows; order 19 is rejected, built or read back from a document
    assert coefficient_table(_MAX_ORDER).alphas[-1] == -1e-323
    n = _MAX_ORDER + 1
    assert n * 10.0 ** (1 - n * n) == 0.0
    for make in (lambda: coefficient_table(n), lambda: PerturbationSpec(n, (), ())):
        with pytest.raises(ValueError, match=f"1..{_MAX_ORDER}"):
            make()


def _mpmath_table(n_max):
    """betas and alphas of order n_max in mpmath at max(60, n_max^2 + 25) digits."""
    with mpmath.workdps(max(60, n_max * n_max + 25)):
        lnln2 = mpmath.log(mpmath.log(2))
        nums = [int(mpmath.floor(lnln2 * 10 ** (n * n))) for n in range(2, n_max + 1)]
        betas = [mpmath.mpf(num) / 10 ** (n * n) for n, num in enumerate(nums, start=2)]
        alphas = [
            float(2 * (mpmath.mpf(2) ** -n * mpmath.exp(n * mpmath.exp(beta)) - 1))
            for n, beta in enumerate(betas, start=2)
        ]
    return [Fraction(num, 10 ** (n * n)) for n, num in enumerate(nums, start=2)], alphas


@pytest.mark.parametrize("n_max", range(1, _MAX_ORDER + 1))
def test_table_matches_mpmath_at_every_order(n_max):
    spec = coefficient_table(n_max)
    betas, alphas = _mpmath_table(n_max)
    assert list(spec.betas) == betas
    assert [a.hex() for a in spec.alphas] == [a.hex() for a in alphas]
    with mpmath.workdps(60):
        for n, beta in enumerate(betas, start=2):
            want = float(mpmath.exp(mpmath.mpf(beta.numerator) / beta.denominator))
            assert lyapunov_target(spec, n).hex() == want.hex()


def test_beta_2_exact_value(spec):
    assert spec.betas[0] == Fraction(-3666, 10**4)


def test_beta_floor_is_toward_minus_infinity():
    # 10^4 lnln2 = -3665.129..., so floor must give -3666, not -3665
    with mpmath.workdps(30):
        assert int(mpmath.floor(mpmath.log(mpmath.log(2)) * 10**4)) == -3666


def test_alpha_2_regression_value(spec):
    assert spec.alphas[0] == pytest.approx(ALPHA_2, rel=1e-12)
    assert abs(spec.alphas[0]) < 2e-3


def test_alpha_magnitude_bound(spec):
    for i, alpha in enumerate(spec.alphas):
        n = i + 2
        assert abs(alpha) <= n * 10.0 ** (-n * n + 1)


def test_betas_in_window(spec):
    for beta in spec.betas:
        assert Fraction(-37, 100) < beta < Fraction(-36, 100)


def test_betas_pairwise_distinct_exactly(spec):
    assert len(set(spec.betas)) == len(spec.betas)


def test_lyapunov_targets_distinct_at_high_precision(spec):
    # gaps shrink like 10^(-N^2) but must exceed 10^(-n_max^2 - 2)
    with mpmath.workdps(80):
        vals = [
            mpmath.exp(mpmath.mpf(b.numerator) / b.denominator) for b in spec.betas
        ]
        gaps = [abs(vals[i] - vals[j]) for i in range(len(vals)) for j in range(i)]
    floor_gap = mpmath.mpf(10) ** (-spec.n_max**2 - 2)
    assert all(gap > floor_gap for gap in gaps)


def test_json_round_trip(spec):
    again = PerturbationSpec.from_json(spec.to_json())
    assert again == spec


# ---------------------------------------------------------------------------
# g and f
# ---------------------------------------------------------------------------

def test_g_vanishes_off_support(spec):
    for x in (0.0, 0.5, 2.0 / 3.0, 0.9):
        g, gp = g_eval(spec, x)
        assert g == 0.0
        assert gp == 0.0


def test_g_at_lattice_centers(spec):
    for n in range(2, spec.n_max + 1):
        c = 1.0 / (2.0**n - 1.0)
        g, gp = g_eval(spec, c)
        assert abs(g) < 1e-18
        assert gp == pytest.approx(spec.alphas[n - 2], abs=1e-18)


def test_f_linear_case():
    fx, fp = f_eval(linear_spec(), 0.3)
    assert fx == pytest.approx(0.6, abs=1e-15)
    assert fp == 2.0


def test_f_at_one_third(spec):
    fx, fp = f_eval(spec, 1.0 / 3.0)
    assert circle_dist(fx, 2.0 / 3.0) < 1e-15
    assert fp == pytest.approx(2.0 + spec.alphas[0], abs=1e-15)


def test_f_at_half(spec):
    fx, fp = f_eval(spec, 0.5)
    assert fx == 0.0
    assert fp == 2.0


def test_f_derivative_in_range_on_dense_grid(spec):
    x = np.linspace(0.0, 1.0, 200_001, endpoint=False)
    _, fp = f_eval(spec, x)
    assert fp.min() > 1.0
    assert fp.max() < 3.0
    _, gp = g_eval(spec, x)
    assert np.abs(gp).max() < 1.0


def test_f_monotone_on_lift(spec):
    x = np.linspace(0.0, 1.0, 100_001)
    g, _ = g_eval(spec, x % 1.0)
    lift = 2.0 * x + g
    assert np.all(np.diff(lift) > 0)


@pytest.mark.parametrize("kind", BUMP_KINDS)
def test_g_matches_finite_differences(kind):
    spec = coefficient_table(5, kind)
    rng = np.random.default_rng(7)
    x = rng.random(10_000)
    h = 1e-7
    g, gp = g_eval(spec, x)
    gp_fd = (g_eval(spec, x + h)[0] - g_eval(spec, x - h)[0]) / (2 * h)
    scale = np.maximum(np.abs(gp), 1e-4)
    assert np.max(np.abs(gp - gp_fd) / scale) < 1e-6


@pytest.mark.parametrize("kind", BUMP_KINDS)
def test_bump_profile_contract(kind):
    chi0, dchi0 = bump_chi(0.0, kind)
    assert chi0 == 0.0
    assert dchi0 == 1.0
    u = np.linspace(-0.75, 0.75, 30_001)
    chi, _ = bump_chi(u, kind)
    assert np.all(chi[np.abs(u) >= 0.5] == 0.0)
    # theta == 1 on the plateau, so chi == u there
    plateau = np.abs(u) <= 0.25
    assert np.allclose(chi[plateau], u[plateau], atol=1e-15)


def test_smoothstep_spec_builds():
    spec = coefficient_table(5, bump_kind="smoothstep")
    g, gp = g_eval(spec, 1.0 / 3.0)
    assert g == pytest.approx(0.0, abs=1e-18)
    assert gp == pytest.approx(spec.alphas[0], abs=1e-18)


# ---------------------------------------------------------------------------
# the mod-1 reduction against NumPy's remainder
# ---------------------------------------------------------------------------

_PROPERTY = settings(derandomize=True, deadline=None, database=None)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _g_reference(spec, x):
    """g and g' written with NumPy's remainder, the reference for _mod1."""
    xv = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
    g = np.zeros_like(xv)
    gp = np.zeros_like(xv)
    for i, alpha in enumerate(spec.alphas):
        n = i + 2
        scale = 8.0**n
        u = scale * (xv - 1.0 / (2.0**n - 1.0))
        live = np.abs(u) < 0.5
        chi, dchi = bump_chi(u[live], spec.bump_kind)
        g[live] += alpha / scale * chi
        gp[live] += alpha * dchi
    return g, gp


def _f_reference(spec, x):
    xv = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
    g, gp = _g_reference(spec, xv)
    return (2.0 * xv + g) % 1.0, 2.0 + gp


@_PROPERTY
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=-1e-20)  # reduces to exactly 1.0
@example(x=np.nextafter(1.0, 0.0))
@example(x=2.0**52 - 0.5)  # the largest double with a fractional part
@example(x=-(2.0**52) + 0.5)
@example(x=2.0**53 + 2.0)  # 2^53 + 1 is not a double; the next one up is 2^53 + 2
@example(x=1e308)
@example(x=-1e308)
def test_mod1_matches_numpy_remainder(x):
    arr = np.array([x])
    assert _bits(_mod1(arr))[0] == _bits(arr % 1.0)[0]
    assert _bits(_mod1(x)) == _bits(np.float64(x) % 1.0)


def test_mod1_matches_numpy_remainder_on_random_bit_patterns():
    rng = np.random.default_rng(12)
    x = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 1 << 18, dtype=np.int64)
    x = x.view(np.float64)
    x = np.concatenate([x[np.isfinite(x)], rng.uniform(-2.0, 2.0, 1 << 16) * 1e-18])
    assert np.array_equal(_bits(_mod1(x)), _bits(x % 1.0))


def test_mod1_leaves_its_input_unchanged():
    x = np.array([-2.75, -1e-18, 0.0, 0.5, 1.0, 3.25])
    x.setflags(write=False)
    kept = x.copy()
    assert np.array_equal(_bits(_mod1(x)), _bits(kept % 1.0))
    assert np.array_equal(_bits(x), _bits(kept))
    assert type(_mod1(-2.75)) is np.float64


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_mod1_of_non_finite_is_nan(x):
    arr = np.array([x])
    with np.errstate(invalid="ignore"):
        assert np.isnan(_mod1(arr)[0]) and np.isnan((arr % 1.0)[0])


def _reduction_inputs(spec, seed):
    rng = np.random.default_rng(seed)
    orders = np.arange(2, spec.n_max + 1)[:, None]
    offsets = rng.uniform(-1.0, 1.0, (orders.size, 500)) * 8.0**-orders
    near = (1.0 / (2.0**orders - 1.0) + offsets).ravel()
    return np.concatenate([
        rng.uniform(-2.0, 3.0, 20_000),
        -rng.uniform(0.0, 1.0, 500) * 10.0 ** rng.integers(-320, -10, 500),
        near, near - 1.0, near + 2.0,
        [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -1e-20, -5e-324, 5e-324, np.nextafter(1.0, 0.0)],
    ])


@pytest.mark.parametrize("kind", BUMP_KINDS)
@pytest.mark.parametrize("n_max", [1, 3, 5, 8])
def test_f_and_g_match_remainder_reference(kind, n_max):
    spec = coefficient_table(n_max, kind)
    x = _reduction_inputs(spec, n_max)
    got = g_eval(spec, x) + f_eval(spec, x)
    want = _g_reference(spec, x) + _f_reference(spec, x)
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


def _g_per_term(spec, x):
    """g and g' as g_eval computed them before its one-pass rewrite: every
    term over every point, the profile once per order with a live point."""
    xv = _mod1(np.asarray(x, dtype=float))
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
    return g[()], gp[()]


def _support_edges(n_max):
    """Each order's center and support edges c_N +- 8^-N / 2, with the three
    doubles either side of each edge, plus 0, 1/2, 1, -0.0 and NaN."""
    points = [0.0, -0.0, 0.5, 1.0, np.nan]
    for n in range(2, n_max + 1):
        c, r = 1.0 / (2.0**n - 1.0), 0.5 / 8.0**n
        points.append(c)
        for edge in (c - r, c + r):
            below = above = edge
            points.append(edge)
            for _ in range(3):
                below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
                points += [below, above]
    return np.array(points)


def _same_bits(got, want):
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b) and type(a) is type(b)
        assert np.array_equal(_bits(np.atleast_1d(a)), _bits(np.atleast_1d(b)))


@pytest.mark.parametrize("kind", BUMP_KINDS)
@pytest.mark.parametrize("n_max", range(1, _MAX_ORDER + 1))
def test_g_matches_the_per_term_evaluation_at_every_support_edge(n_max, kind):
    # the one-pass search picks the order; |u| < 0.5 alone decides, to the
    # last double, which points are live
    spec = coefficient_table(n_max, kind)
    x = _support_edges(n_max)
    _same_bits(g_eval(spec, x), _g_per_term(spec, x))
    square = np.resize(x, (4, x.size // 4 + 1))
    _same_bits(g_eval(spec, square), _g_per_term(spec, square))
    for point in x:
        _same_bits(g_eval(spec, point), _g_per_term(spec, point))
        _same_bits(g_eval(spec, np.array(point)), _g_per_term(spec, np.array(point)))
    # more live points than one block of the profile holds
    dense = 1.0 / 3.0 + np.linspace(-1.0, 1.0, 3 * circle_map._BUMP_BLOCK + 1) / 128.0
    _same_bits(g_eval(spec, dense), _g_per_term(spec, dense))


@_PROPERTY
@given(
    n_max=st.integers(1, _MAX_ORDER),
    kind=st.sampled_from(BUMP_KINDS),
    x=st.lists(st.one_of(st.floats(-2.0, 3.0), st.floats(allow_infinity=True)), min_size=1, max_size=24),
    rows=st.integers(1, 3),
)
def test_property_g_matches_the_per_term_evaluation(n_max, kind, x, rows):
    spec = coefficient_table(n_max, kind)
    x = np.array(x * rows).reshape(rows, -1)
    with np.errstate(invalid="ignore"):
        _same_bits(g_eval(spec, x), _g_per_term(spec, x))


def test_g_evaluates_the_profile_once_over_every_order(monkeypatch):
    # one point live for each order 2..8, and one call of the profile
    spec = coefficient_table(8)
    calls = []
    profile = circle_map.bump_chi
    monkeypatch.setattr(circle_map, "bump_chi", lambda u, kind: calls.append(u.size) or profile(u, kind))
    g_eval(spec, [1.0 / (2.0**n - 1.0) for n in range(2, 9)])
    assert calls == [7]


def test_push_forward_matches_remainder_reference(spec):
    rng = np.random.default_rng(5)
    count = 10_007
    thetas, xs, ys = rng.random(count), np.zeros(count), np.zeros(count)
    got = push_forward(spec, thetas, 20)
    for _ in range(20):
        ang = 2.0 * np.pi * thetas
        thetas, _ = _f_reference(spec, thetas)
        xs = 0.25 * xs + _QUARTER_PI_INV * np.cos(ang)
        ys = 0.25 * ys + _QUARTER_PI_INV * np.sin(ang)
    for a, b in zip(got, (thetas, xs, ys)):
        assert np.array_equal(_bits(a), _bits(b))


def test_one_mod1_reduction_in_package():
    # _mod1 is the one float reduction mod 1, so no site can drift back to
    # NumPy's slower remainder; integer reductions such as j % m are left alone.
    found = []
    for path in sorted(Path(circle_map.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
                right = node.right if isinstance(node, ast.BinOp) else node.value
                if isinstance(right, ast.Constant) and right.value == 1:
                    found.append((path.name, node.lineno))
            callee = getattr(node, "func", None)
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in ("mod", "remainder", "fmod")
                and getattr(callee.value, "id", None) in ("np", "numpy")
            ):
                found.append((path.name, node.lineno))
    assert found == []


def test_no_scalar_branch_in_package():
    # NumPy carries a 0-d value through every evaluation, so no function tests
    # for a scalar by its ndim; the one lift left is _identity's, whose rows
    # preimage_tree concatenates level by level.
    def np_call(node, name):
        callee = getattr(node, "func", None)
        return (
            isinstance(callee, ast.Attribute)
            and callee.attr == name
            and getattr(callee.value, "id", None) in ("np", "numpy")
        )

    def is_ndim(node):
        return np_call(node, "ndim") or (isinstance(node, ast.Attribute) and node.attr == "ndim")

    ndim_tests, lifts = [], set()
    for path in sorted(Path(circle_map.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if np_call(node, "atleast_1d"):
                    lifts.add((path.name, func.name))
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(map(is_ndim, sides)) and any(
                        isinstance(side, ast.Constant) and side.value == 0 for side in sides
                    ):
                        ndim_tests.append((path.name, func.name, node.lineno))
    assert ndim_tests == []
    assert lifts <= {("symbolic.py", "_identity")}


# ---------------------------------------------------------------------------
# periodic points and exponents
# ---------------------------------------------------------------------------

def _lattice_orbit(spec, N):
    """The period-N orbit's first angle, its angular closure residual and its exponent."""
    orbit = periodic_orbit(spec, N)
    theta = orbit.points[0].theta
    residual = circle_dist(f_eval(spec, orbit.points[-1].theta)[0], theta)
    return theta, residual, orbit.unstable_exponent


@pytest.mark.parametrize("N", [2, 3, 5])
def test_periodic_theta(spec, N):
    theta, residual, _ = _lattice_orbit(spec, N)
    assert theta == 1.0 / (2.0**N - 1.0)
    assert residual < 1e-12


@pytest.mark.parametrize("kind", BUMP_KINDS)
def test_longest_lattice_period_closes_and_the_next_is_rejected(kind):
    # 1/(2^52 - 1) is the last lattice point a double holds as a periodic point;
    # from 53 on the walk would miss by the point's own size, below the tolerance
    spec = coefficient_table(5, kind)
    theta, residual, _ = _lattice_orbit(spec, 52)
    assert theta == 1.0 / (2.0**52 - 1.0)
    assert residual < 1e-30
    for N in (53, 1024):
        with pytest.raises(ValueError, match="at most 52"):
            periodic_orbit(spec, N)


def test_lyapunov_linear_map():
    lam = periodic_orbit(linear_spec(), 2).unstable_exponent
    assert lam == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_lyapunov_matches_closed_form_and_target(spec, N):
    _, _, lam = _lattice_orbit(spec, N)
    alpha = spec.alphas[N - 2]
    closed = math.log(2.0) + math.log1p(alpha / 2.0) / N
    assert abs(lam - closed) < 1e-12
    assert abs(lam - lyapunov_target(spec, N)) < 1e-12


def test_lyapunov_target_regression(spec):
    assert lyapunov_target(spec, 2) == pytest.approx(E_BETA_2, abs=1e-15)


def _orbit_from(monkeypatch, spec, theta, N):
    """periodic_orbit(spec, N) started from theta in place of the lattice point."""
    monkeypatch.setattr(solenoid, "_lattice_point", lambda n: theta)
    return periodic_orbit(spec, N)


def test_lyapunov_rejects_non_periodic(spec, monkeypatch):
    with pytest.raises(PeriodicityError):
        _orbit_from(monkeypatch, spec, 0.123456, 3)


def test_lyapunov_closure_tolerance_is_the_periodic_one(monkeypatch):
    # on the linear map the start 1/3 + 5e-12 returns 1.5e-11 away after two
    # steps: above the 1e-12 closure tolerance that criterion 1 claims
    with pytest.raises(PeriodicityError):
        _orbit_from(monkeypatch, linear_spec(), 1.0 / 3.0 + 5e-12, 2)
    orbit = _orbit_from(monkeypatch, linear_spec(), 1.0 / 3.0 + 1e-13, 2)
    assert orbit.unstable_exponent == math.log(2.0)


# ---------------------------------------------------------------------------
# lattice geometry
# ---------------------------------------------------------------------------

def test_lattice_order_2_passes():
    report = verify_lattice(2)
    assert isinstance(report, LatticeReport)
    assert report.ok
    assert report.intervals_checked == 1


def test_lattice_order_20_passes():
    report = verify_lattice(20)
    assert report.ok
    assert report.exclusions_checked == sum(n - 1 for n in range(2, 21))
    assert report.first_violation is None


def test_mutated_radius_fails_disjointness():
    report = verify_lattice(20, radius_base=2)
    assert not report.disjoint_ok
    assert not report.ok
    assert report.first_violation is not None


def _all_pairs_lattice(k_max, radius_base):
    """The lattice check as every pair of orders and every point against every order."""
    first = None
    intervals = [(K, *circle_map._interval(K, radius_base)) for K in range(2, k_max + 1)]
    pairs, disjoint_ok = 0, True
    for i, (ki, lo_i, hi_i) in enumerate(intervals):
        for kj, lo_j, hi_j in intervals[i + 1:]:
            pairs += 1
            if not (hi_j < lo_i or hi_i < lo_j):
                disjoint_ok = False
                first = first or f"intervals K={ki} and K={kj} overlap"
    # every order whose interval reaches the smallest point, 2/(2^k_max - 1)
    min_point = Fraction(2, 2**k_max - 1)
    deep = []
    while not deep or deep[-1][2] >= min_point:
        deep.append((len(deep) + 2, *circle_map._interval(len(deep) + 2, radius_base)))
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


@pytest.mark.parametrize("radius_base", [2, 3, 4, 5, 8, 16])
def test_lattice_sweep_matches_all_pairs(radius_base):
    for k_max in range(2, 41):
        assert verify_lattice(k_max, radius_base) == _all_pairs_lattice(k_max, radius_base)


def test_lattice_violation_messages():
    assert verify_lattice(20, radius_base=2).first_violation == "intervals K=2 and K=3 overlap"
    report = verify_lattice(5, radius_base=3)
    assert report.disjoint_ok and not report.exclusions_ok
    assert report.first_violation == "2^1/(2^3-1) lies in the order-2 interval"


def test_lattice_interval_ends_fall_with_the_order():
    # the sweep's precondition: lo_K and hi_K fall strictly with K, and
    # hi_K lies below 2/(2^K - 1), the smallest exclusion point at k_max = K
    for radius_base in range(2, 65):
        ends = [circle_map._interval(K, radius_base) for K in range(2, 201)]
        for K, ((lo, hi), (lo_next, hi_next)) in enumerate(zip(ends, ends[1:]), start=2):
            assert lo_next < lo and hi_next < hi, (radius_base, K)
            assert hi < Fraction(2, 2**K - 1), (radius_base, K)


def test_lattice_argument_validation():
    with pytest.raises(ValueError):
        verify_lattice(1)
    with pytest.raises(ValueError):
        verify_lattice(5, radius_base=1)


# ---------------------------------------------------------------------------
# the bump profile's plateau and the exp step, against the forms they replaced
# ---------------------------------------------------------------------------

def _exp_step_masked(t):
    """circle_map._exp_step before it took both exps over the whole block
    (its warnings silenced: a subnormal t overflows -1/t, a NaN t gives 0/0)."""
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


def _bump_chi_everywhere(u, kind):
    """bump_chi before the plateau: the profile at every point."""
    step = {"exp": _exp_step_masked, "smoothstep": circle_map._poly_step}[kind]
    u = np.asarray(u, dtype=float)
    theta, dstep = step(2.0 - 4.0 * np.abs(u))
    dtheta = dstep * (-4.0) * np.sign(u)
    return u * theta, theta + u * dtheta


def _same_or_both_nan(got, want):
    assert np.shape(got) == np.shape(want) and type(got) is type(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got[~nan]), _bits(want[~nan]))


def test_exp_step_matches_the_masked_step():
    rng = np.random.default_rng(5)
    edges = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 5e-324, 1e-300, 2.0**-52, 1.0 - 2.0**-53,
             np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0), np.inf, -np.inf, np.nan]
    for t in (rng.uniform(-0.5, 1.5, 5000), rng.random(10), np.array(edges)):
        for got, want in zip(circle_map._exp_step(t), _exp_step_masked(t), strict=True):
            _same_or_both_nan(got, want)


_QUARTER = [0.0, -0.0, 0.25, -0.25, np.nextafter(0.25, 1.0), np.nextafter(-0.25, -1.0),
            np.nextafter(0.25, 0.0), 0.5, -0.5, 0.75, np.nan]


@pytest.mark.parametrize("kind", BUMP_KINDS)
def test_bump_chi_matches_the_profile_everywhere(kind):
    rng = np.random.default_rng(7)
    inputs = [*_QUARTER, np.array(_QUARTER), rng.uniform(-0.7, 0.7, 5000),
              rng.uniform(-0.3, 0.3, (40, 3)).T, np.array(0.4), np.empty(0)]
    for u in inputs:
        got, want = bump_chi(u, kind), _bump_chi_everywhere(u, kind)
        for a, b in zip(got, want, strict=True):
            _same_or_both_nan(a, b)


@pytest.mark.parametrize("kind", BUMP_KINDS)
def test_bump_chi_runs_the_profile_only_on_the_rim(kind, monkeypatch):
    seen = []
    real = circle_map._bump_theta
    monkeypatch.setattr(circle_map, "_bump_theta", lambda u, k: seen.append(u.copy()) or real(u, k))
    u = np.concatenate([_QUARTER, np.random.default_rng(3).uniform(-0.6, 0.6, 1000)])
    bump_chi(u, kind)
    bump_chi(0.1, kind)
    profiled = np.concatenate(seen)
    rim = u[~(np.abs(u) <= 0.25)]
    assert np.array_equal(_bits(profiled), _bits(rim))
