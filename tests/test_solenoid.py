"""Solid-torus map: Jacobian structure, fixed points, orbits, bunching."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from reference import same_bits
from solenoidlab import solenoid
from solenoidlab.circle_map import (
    BUMP_KINDS,
    PeriodicityError,
    circle_dist,
    coefficient_table,
    linear_spec,
    lyapunov_target,
)
from solenoidlab.solenoid import (
    SolenoidPoint,
    bunching_margin,
    jacobian,
    periodic_orbit,
    push_forward,
    step,
    step_many,
)
from test_differential import check


@pytest.fixture(scope="module")
def spec():
    return coefficient_table(5)


def test_step_at_origin(spec):
    image, deriv = step(spec, SolenoidPoint(0.0, 0.0, 0.0))
    assert image.theta == 0.0
    assert image.x == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-16)
    assert image.y == 0.0
    assert deriv == 2.0


def test_fixed_point_on_central_fiber(spec):
    p = SolenoidPoint(0.0, 1.0 / (3.0 * math.pi), 0.0)
    image, _ = step(spec, p)
    assert image.theta == 0.0
    assert image.x == pytest.approx(p.x, abs=1e-16)
    assert image.y == 0.0


def test_theta_component_follows_circle_map(spec):
    image, _ = step(spec, SolenoidPoint(1.0 / 3.0, 0.1, -0.2))
    assert circle_dist(image.theta, 2.0 / 3.0) < 1e-15


def test_jacobian_at_zero(spec):
    jac = jacobian(spec, SolenoidPoint(0.0, 0.0, 0.0))
    expected = np.array([[2.0, 0.0, 0.0], [0.0, 0.25, 0.0], [0.5, 0.0, 0.25]])
    assert np.allclose(jac, expected, atol=1e-15)


def test_jacobian_shape_and_determinant(spec):
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = SolenoidPoint(rng.random(), 0.5 * rng.random(), 0.5 * rng.random())
        jac = jacobian(spec, p)
        # stable block is exactly diag(1/4, 1/4) and theta row is decoupled
        assert jac[0, 1] == 0.0 and jac[0, 2] == 0.0
        assert jac[1, 1] == 0.25 and jac[2, 2] == 0.25
        assert jac[1, 2] == 0.0 and jac[2, 1] == 0.0
        _, deriv = step(spec, p)
        assert np.linalg.det(jac) == pytest.approx(deriv / 16.0, abs=1e-12)


def test_jacobian_matches_finite_differences(spec):
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(50):
        p = np.array([rng.random() * 0.9 + 0.05, 0.4 * rng.random(), 0.4 * rng.random()])
        jac = jacobian(spec, SolenoidPoint(*p))
        fd = np.empty((3, 3))
        for j in range(3):
            lo, hi = p.copy(), p.copy()
            lo[j] -= h
            hi[j] += h
            a, _ = step(spec, SolenoidPoint(*lo))
            b, _ = step(spec, SolenoidPoint(*hi))
            fd[:, j] = (np.array(b) - np.array(a)) / (2 * h)
        assert np.max(np.abs(fd - jac)) < 1e-6


def test_stable_vectors_contract_exactly(spec):
    jac = jacobian(spec, SolenoidPoint(0.77, 0.1, 0.1))
    v = jac @ np.array([0.0, 3.0, -5.0])
    assert v[0] == 0.0
    assert v[1] == 0.75 and v[2] == -1.25


def test_forward_image_stays_in_torus(spec):
    rng = np.random.default_rng(3)
    ang = 2 * np.pi * rng.random(1000)
    r = np.sqrt(rng.random(1000))
    thetas = rng.random(1000)
    _, xs, ys, _ = step_many(spec, thetas, r * np.cos(ang), r * np.sin(ang))
    rad2 = xs**2 + ys**2
    assert rad2.max() <= 0.25 + 0.25 / np.pi + 0.05


def test_injectivity_on_sample(spec):
    rng = np.random.default_rng(17)
    n = 10_000
    ang = 2 * np.pi * rng.random(n)
    r = np.sqrt(rng.random(n))
    thetas = rng.random(n)
    xs, ys = r * np.cos(ang), r * np.sin(ang)
    ft, fx, fy, _ = step_many(spec, thetas, xs, ys)
    order = np.lexsort((fy, fx, ft))
    dt = np.abs(np.diff(ft[order]))
    dt = np.minimum(dt, 1.0 - dt)
    close_img = (
        (dt < 1e-9) & (np.abs(np.diff(fx[order])) < 1e-9) & (np.abs(np.diff(fy[order])) < 1e-9)
    )
    for i in np.nonzero(close_img)[0]:
        a, b = order[i], order[i + 1]
        d0 = max(
            circle_dist(thetas[a], thetas[b]), abs(xs[a] - xs[b]), abs(ys[a] - ys[b])
        )
        assert d0 < 1e-8


def test_periodic_orbit_fixed_point(spec):
    orbit = periodic_orbit(spec, 1)
    assert len(orbit.points) == 1
    p = orbit.points[0]
    assert p.theta == 0.0
    assert p.x == pytest.approx(1.0 / (3.0 * math.pi), abs=1e-13)
    assert abs(p.y) < 1e-13
    assert orbit.unstable_exponent == pytest.approx(math.log(2.0), abs=1e-15)


def test_fixed_point_fiber_is_the_closed_form():
    # F(0, x, 0) = (0, x/4 + 1/(4 pi), 0) is fixed at x = 1/(3 pi)
    x = periodic_orbit(coefficient_table(5), 1).points[0].x
    want = 1.0 / (3.0 * math.pi)
    assert abs(x - want) <= np.spacing(want)


@pytest.mark.parametrize("kind", BUMP_KINDS)
@pytest.mark.parametrize("n_max", [1, 3, 5, 8])
def test_periodic_orbit_closes_to_float_resolution(kind, n_max):
    spec = coefficient_table(n_max, bump_kind=kind)
    for N in range(1, 11):
        orbit = periodic_orbit(spec, N)
        closing, _ = step(spec, orbit.points[-1])
        p0 = orbit.points[0]
        residual = max(
            circle_dist(closing.theta, p0.theta), abs(closing.x - p0.x), abs(closing.y - p0.y)
        )
        assert residual <= 1e-16, (N, residual)


def test_longest_lattice_orbit_closes_and_the_next_is_rejected(spec):
    orbit = periodic_orbit(spec, 52)
    assert len(orbit.points) == 52 and orbit.points[0].theta == 1.0 / (2.0**52 - 1.0)
    closing, _ = step(spec, orbit.points[-1])
    p0 = orbit.points[0]
    residual = max(
        circle_dist(closing.theta, p0.theta), abs(closing.x - p0.x), abs(closing.y - p0.y)
    )
    assert residual <= 1e-16
    for N in (53, 1024):
        with pytest.raises(ValueError, match="at most 52"):
            periodic_orbit(spec, N)


def test_periodic_orbit_closure_failure_is_a_periodicity_error(spec, monkeypatch):
    monkeypatch.setattr(solenoid, "_PERIODIC_TOL", 0.0)  # every residual is at or above it
    with pytest.raises(PeriodicityError, match="period 3"):
        periodic_orbit(spec, 3)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_periodic_orbit_closure_and_exponent(spec, N):
    orbit = periodic_orbit(spec, N)
    assert len(orbit.points) == N
    image, _ = step(spec, orbit.points[-1])
    p0 = orbit.points[0]
    assert circle_dist(image.theta, p0.theta) < 1e-12
    assert abs(image.x - p0.x) < 1e-12
    assert abs(image.y - p0.y) < 1e-12
    assert abs(orbit.unstable_exponent - lyapunov_target(spec, N)) < 1e-12


def test_orbit_thetas_follow_lattice(spec):
    orbit = periodic_orbit(spec, 3)
    got = sorted(p.theta for p in orbit.points)
    want = sorted((2.0**k / 7.0) % 1.0 for k in range(3))
    assert np.allclose(got, want, atol=1e-13)


def test_bunching_margin_linear():
    assert bunching_margin(linear_spec(), 1024) == 0.5


def test_bunching_margin_perturbed(spec):
    margin = bunching_margin(spec, 1 << 16)
    assert margin < 0.51
    assert margin < 1.0


def _iterate(spec, thetas, xs, ys, depth):
    """F^depth by a step_many loop on parallel coordinate arrays."""
    for _ in range(depth):
        thetas, xs, ys, _ = step_many(spec, thetas, xs, ys)
    return thetas, xs, ys


def test_push_forward_identity_and_contraction(spec):
    assert [list(c) for c in push_forward(spec, [0.42], 0)] == [[0.42], [0.0], [0.0]]
    (ta, tb), (xa, xb), (ya, yb) = _iterate(spec, [0.42, 0.42], [0.9, -0.3], [0.0, -0.8], 20)
    assert ta == tb  # same angular history
    assert abs(xa - xb) < 2 * 4.0**-20
    assert abs(ya - yb) < 2 * 4.0**-20


@pytest.mark.parametrize("copies", [1, 2])
def test_push_forward_matches_serial_steps(spec, copies):
    # each row's image is its own serial walk, whatever else is in the batch
    thetas = np.random.default_rng(29).random(10_007)
    check("push_forward", spec, np.tile(thetas, copies), 20)


def test_periodic_orbit_rows(spec):
    orbit = periodic_orbit(spec, 6)
    assert len(orbit.points) == len(orbit.derivs) == 6
    assert orbit.points[0].theta == 1.0 / 63.0
    p = orbit.points[0]
    for q in orbit.points[1:]:
        p, _ = step(spec, p)
        assert p == q
    assert all(1.0 < d < 3.0 for d in orbit.derivs)


@pytest.mark.parametrize("kind", BUMP_KINDS)
@pytest.mark.parametrize("n_max", [1, 3, 5, 8])
def test_periodic_orbit_matches_step_walk_and_lyapunov_periodic(kind, n_max):
    spec = coefficient_table(n_max, bump_kind=kind)
    for N in range(1, 8):
        orbit = periodic_orbit(spec, N)
        p = orbit.points[0]
        walk, derivs = [], []
        for _ in range(N):
            walk.append(p)
            p, d = step(spec, p)
            derivs.append(d)
        assert orbit.points == tuple(walk), N
        assert orbit.derivs == tuple(derivs), N
        # the mean of the walk's log-derivatives, summed in walk order
        exponent = 0.0
        for d in derivs:
            exponent += np.log(d)
        same_bits(np.float64(orbit.unstable_exponent), exponent / N)


def test_push_forward_deep_resolves_fiber(spec):
    _, (xa, xb), (ya, yb) = _iterate(spec, [0.1, 0.1], [1.0, -1.0], [0.0, 0.0], 40)
    assert abs(xa - xb) <= np.finfo(float).eps
    assert abs(ya - yb) <= np.finfo(float).eps


def test_one_thread_pool_in_package():
    # fourier._chunked builds the package's one pool, for mu_hat's elementwise
    # passes, and imports it there; every other computation runs on the calling
    # thread.  test_fourier checks that mu_hat's bits do not follow the worker
    # count, and a second pool needs a test of its own before it joins this list.
    pools, imports = [], []
    for path in sorted(Path(solenoid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node -> name of the innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    scope[node] = fn.name  # inner functions are walked later
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                if name == "ThreadPoolExecutor":
                    pools.append((path.name, scope.get(node)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
                if isinstance(node, ast.ImportFrom):
                    names.add(node.module or "")
                if {name.split(".")[0] for name in names} & {"threading", "concurrent", "multiprocessing"}:
                    imports.append((path.name, scope.get(node)))
    assert pools == [("fourier.py", "_chunked")]
    assert imports == [("fourier.py", "_chunked")]


def test_one_orbit_closure_error_in_package():
    # every raise guarded by a _PERIODIC_TOL comparison raises PeriodicityError,
    # and solenoid.py defines no exception class, so no second closure error
    # type can grow beside it
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    raised = []
    for path in sorted(Path(solenoid.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.If) and "_PERIODIC_TOL" in map(name, ast.walk(node.test)):
                raised.extend(
                    (path.name, name(getattr(sub.exc, "func", sub.exc)))
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Raise)
                )
            if path.name == "solenoid.py" and isinstance(node, ast.ClassDef):
                bases = [str(name(base)) for base in node.bases]
                assert not any(b.endswith(("Error", "Exception")) for b in bases), node.name
    assert sorted(raised) == [("solenoid.py", "PeriodicityError")]


def test_fresh_caches_clears_every_process_lifetime_cache():
    # A process-lifetime cache is a function under functools.lru_cache or cache,
    # a module-level name written by subscript inside a function, or a name
    # rebound under global; conftest.fresh_caches must empty each one.
    caches = set()
    for path in sorted(Path(solenoid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        module_names = {target.id for node in tree.body
                        for target in getattr(node, "targets", [getattr(node, "target", node)])
                        if isinstance(target, ast.Name)}
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            if any(ast.unparse(getattr(d, "func", d)).split(".")[-1] in ("lru_cache", "cache")
                   for d in fn.decorator_list):
                caches.add(f"{path.stem}.{fn.name}")
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    caches.update(f"{path.stem}.{name}" for name in node.names)
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    if isinstance(target, ast.Subscript) and getattr(target.value, "id", None) in module_names:
                        caches.add(f"{path.stem}.{target.value.id}")
    fixture = next(node for node in ast.parse(Path(__file__).with_name("conftest.py").read_text()).body
                   if getattr(node, "name", None) == "fresh_caches")
    cleared = {ast.unparse(getattr(stmt.value, "func", stmt.value).value if isinstance(stmt, ast.Expr)
                           else stmt.targets[0]) for stmt in fixture.body}
    assert caches == cleared
