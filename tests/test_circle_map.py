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
    lyapunov_periodic,
    lyapunov_target,
    periodic_theta,
    verify_lattice,
)
from solenoidlab.solenoid import _QUARTER_PI_INV, push_forward

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


# ---------------------------------------------------------------------------
# periodic points and exponents
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 5])
def test_periodic_theta(spec, N):
    theta, residual = periodic_theta(spec, N)
    assert theta == 1.0 / (2.0**N - 1.0)
    assert residual < 1e-12


@pytest.mark.parametrize("kind", BUMP_KINDS)
def test_longest_lattice_period_closes_and_the_next_is_rejected(kind):
    # 1/(2^52 - 1) is the last lattice point a double holds as a periodic point;
    # from 53 on the walk would miss by the point's own size, below the tolerance
    spec = coefficient_table(5, kind)
    theta, residual = periodic_theta(spec, 52)
    assert theta == 1.0 / (2.0**52 - 1.0)
    assert residual < 1e-30
    for N in (53, 1024):
        with pytest.raises(ValueError, match="at most 52"):
            periodic_theta(spec, N)


def test_lyapunov_linear_map():
    lam = lyapunov_periodic(linear_spec(), 1.0 / 3.0, 2)
    assert lam == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_lyapunov_matches_closed_form_and_target(spec, N):
    theta, _ = periodic_theta(spec, N)
    lam = lyapunov_periodic(spec, theta, N)
    alpha = spec.alphas[N - 2]
    closed = math.log(2.0) + math.log1p(alpha / 2.0) / N
    assert abs(lam - closed) < 1e-12
    assert abs(lam - lyapunov_target(spec, N)) < 1e-12


def test_lyapunov_target_regression(spec):
    assert lyapunov_target(spec, 2) == pytest.approx(E_BETA_2, abs=1e-15)


def test_lyapunov_rejects_non_periodic(spec):
    with pytest.raises(PeriodicityError):
        lyapunov_periodic(spec, 0.123456, 3)


def test_lyapunov_closure_tolerance_is_the_periodic_one():
    # on the linear map the start 1/3 + 5e-12 returns 1.5e-11 away after two
    # steps: above the 1e-12 closure tolerance that criterion 1 claims
    with pytest.raises(PeriodicityError):
        lyapunov_periodic(linear_spec(), 1.0 / 3.0 + 5e-12, 2)
    assert lyapunov_periodic(linear_spec(), 1.0 / 3.0 + 1e-13, 2) == math.log(2.0)


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


def test_lattice_argument_validation():
    with pytest.raises(ValueError):
        verify_lattice(1)
    with pytest.raises(ValueError):
        verify_lattice(5, radius_base=1)
