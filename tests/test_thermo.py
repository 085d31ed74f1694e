"""Equilibrium solves, Gibbs estimates, regularity, deviations, sampling."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import birkhoff_sums, equilibrium, same_bits
from solenoidlab import symbolic, thermo
from solenoidlab.circle_map import (
    BUMP_KINDS,
    _mod1,
    bump_chi,
    circle_dist,
    coefficient_table,
    f_eval,
    g_eval,
    linear_spec,
)
from solenoidlab.fourier import decay_exponent, mu_hat
from solenoidlab.symbolic import apply_word
from solenoidlab.thermo import (
    GridFunction,
    cylinder_levels,
    gibbs_ratio_stats,
    large_deviation_profile,
    measure_cdf,
    mme_potential,
    nodes,
    regular_words,
    sample,
    solve_equilibrium,
    srb_potential,
    transfer_apply,
    transfer_matrix,
    upper_regularity_exponent,
)
from solenoidlab.twisted import ZetaTable, nonconcentration_count, twisted_norm_profile
from test_differential import CELL_EDGES, check

M = 1 << 12
LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def spec():
    return coefficient_table(5)


@pytest.fixture(scope="module")
def lin_eq():
    return solve_equilibrium(linear_spec(), mme_potential(M))


@pytest.fixture(scope="module")
def pert_eq(spec):
    return solve_equilibrium(spec, mme_potential(1 << 14))


@pytest.fixture(scope="module")
def sin_eq(spec):
    m = 1 << 14
    return solve_equilibrium(spec, GridFunction(0.5 * np.sin(2 * np.pi * np.arange(m) / m)))


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros(100))
    with pytest.raises(ValueError):
        GridFunction(np.zeros(3000))
    for grid in (np.float64(1.0), np.zeros((1024, 1))):
        with pytest.raises(ValueError):
            GridFunction(grid)
    g = GridFunction(np.sin(2 * np.pi * nodes(2048)))
    assert g(0.25) == pytest.approx(1.0, abs=1e-5)


def test_equilibrium_grids_are_read_only(pert_eq):
    # the CLI hands one solved state to every later run of the process
    for grid in (pert_eq.potential_psi, pert_eq.eigenfunction, pert_eq.density, pert_eq.phi):
        with pytest.raises(ValueError):
            grid.values[0] = 1.0


def test_grid_function_copies_only_what_freezing_would_take_from_the_caller():
    for given in (np.zeros(1024), np.zeros(2048)[::2]):
        g = GridFunction(given)
        assert given.flags.writeable and not g.values.flags.writeable
        given[0] = 1.0  # the caller's array stays the caller's
        assert g.values[0] == 0.0
    buf = np.zeros(1024)
    g = GridFunction(memoryview(buf))  # a new array object on the caller's memory
    buf[0] = 1.0
    assert g.values[0] == 0.0 and buf.flags.writeable
    frozen = np.ones(1024)
    frozen.setflags(write=False)
    assert GridFunction(frozen).values is frozen
    # a read-only view of a writable array: the caller still writes through buf
    buf = np.zeros(1024)
    view = buf.view()
    view.setflags(write=False)
    for given in (view, np.broadcast_to(buf[:1], (1024,))):
        g = GridFunction(given)
        buf[0] = 1.0
        assert g.values[0] == 0.0
        buf[0] = 0.0
    converted = np.arange(1024)  # integers: converted into a new array, not copied again
    g = GridFunction(converted)
    assert g.values.base is None and not g.values.flags.writeable
    assert converted.flags.writeable
    assert not GridFunction([0.0] * 1024).values.flags.writeable


def test_transfer_counts_preimages():
    lin = linear_spec()
    out = transfer_apply(lin, mme_potential(M), GridFunction.constant(1.0, M))
    assert np.allclose(out.values, 2.0, atol=1e-14)


def test_transfer_normalized_linear():
    lin = linear_spec()
    out = transfer_apply(
        lin, GridFunction.constant(-LN2, M), GridFunction.constant(1.0, M)
    )
    assert np.allclose(out.values, 1.0, atol=1e-14)


def test_transfer_adjoint_consistency(spec):
    rng = np.random.default_rng(8)
    pot = GridFunction(-LN2 + 0.1 * np.sin(2 * np.pi * np.arange(M) / M))
    h = GridFunction(rng.random(M))
    rho = GridFunction(rng.random(M))
    lhs = np.mean(transfer_apply(spec, pot, h).values * rho.values)
    rhs = np.mean(h.values * (transfer_matrix(spec, pot).T @ rho.values))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _stencil_arrays(stencil):
    """Every array of a stencil: each branch's four, then indices, indptr and the wrap rows."""
    return [arr for branch in stencil.branches for arr in branch] + list(stencil[1:])


def test_preimages_solved_once_per_spec_and_grid(spec, monkeypatch):
    branches = []
    real = symbolic._solve_branch

    def counting(spec_, a, x):
        branches.append(float(a))
        return real(spec_, a, x)

    monkeypatch.setattr(symbolic, "_solve_branch", counting)
    m = 1 << 10
    eq = solve_equilibrium(spec, srb_potential(spec, m))
    twisted_norm_profile(eq, 100.0, 3)
    transfer_apply(spec, eq.phi, GridFunction.constant(1.0, m))
    assert branches == [0.0, 1.0]


def test_cached_preimages_are_read_only(spec):
    # the CSR indices and indptr among them: every matrix of the grid shares
    # them, so no scipy call on one matrix may rewrite them for the others
    for arr in _stencil_arrays(thermo._stencil(spec, 1 << 10)):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_transfer_matrix_structure_is_shared_and_read_only():
    # the linear map's preimages sit on nodes, so its rows hold explicit zeros
    # that eliminate_zeros() would strip by rewriting the shared structure
    spec = linear_spec()
    m = 1 << 10
    mat = transfer_matrix(spec, GridFunction.constant(0.0, m))
    stencil = thermo._stencil(spec, m)
    assert np.shares_memory(mat.indices, stencil.indices)
    assert np.shares_memory(mat.indptr, stencil.indptr)
    assert np.count_nonzero(mat.data == 0.0) > 0
    with pytest.raises(ValueError):
        mat.eliminate_zeros()
    private = mat.copy()
    private.eliminate_zeros()
    assert private.nnz < mat.nnz == 4 * m
    assert np.array_equal(stencil.indptr, np.arange(0, 4 * m + 1, 4))


@pytest.mark.parametrize("m", [1 << 10, 1 << 14])
def test_preimages_match_one_symbol_words_bit_for_bit(spec, m):
    stencil = thermo._stencil(spec, m)
    for a in (0, 1):
        y, deriv = apply_word(spec, (a,), nodes(m))
        j, right, frac, log_fp = stencil.branches[a]
        want_j, want_right, want_frac = thermo._cell(_mod1(y), m)
        assert j.dtype == right.dtype == np.int32
        assert np.array_equal(j, want_j) and np.array_equal(right, want_right)
        assert np.array_equal(frac.view(np.int64), want_frac.view(np.int64))
        assert np.array_equal(log_fp.view(np.int64), np.log(1.0 / deriv).view(np.int64))


def test_preimages_follow_spec_and_grid(spec):
    smooth = coefficient_table(5, "smoothstep")
    m = 1 << 10
    exp_frac = thermo._stencil(spec, m).branches[0][2]
    for key in ((smooth, m), (spec, 2 * m), (spec, m)):
        cached = _stencil_arrays(thermo._stencil(*key))
        uncached = _stencil_arrays(thermo._stencil.__wrapped__(*key))
        assert len(cached) == len(uncached)
        for got, want in zip(cached, uncached):
            assert np.array_equal(got, want)
    # the two bump kinds move the preimages, so a memo keyed on m alone fails above
    assert not np.array_equal(thermo._stencil.__wrapped__(smooth, m).branches[0][2], exp_frac)


@pytest.mark.parametrize("twist", [0.0, 100.0, 1e4, -1e4])
@pytest.mark.parametrize("m", [1 << 10, 1 << 14])
@pytest.mark.parametrize("kind", ["exp", "smoothstep", "linear"])
def test_transfer_matrix_matches_the_coo_build_bit_for_bit(kind, m, twist):
    spec_ = linear_spec() if kind == "linear" else coefficient_table(5, kind)
    pot = GridFunction(srb_potential(spec_, m).values + 0.3 * np.sin(2 * np.pi * nodes(m)))
    check("transfer_matrix", spec_, pot, twist)
    # rows whose slots are out of column order exist, so the permutation ran
    assert thermo._stencil(spec_, m).wrap_rows.size > 0


@settings(max_examples=20)
@given(n_max=st.integers(1, 18), kind=st.sampled_from(BUMP_KINDS), log_m=st.integers(10, 14))
def test_property_stencil_columns_strictly_increase(n_max, kind, log_m):
    # The C^1 budget below 1 gives f' in (1, 3), so the two preimages of a node
    # are more than 1/3 apart both ways round the circle: the four bracketing
    # nodes of a row are distinct, and sorting them leaves them strictly
    # increasing.  The COO build therefore never summed a duplicate entry.
    m = 1 << log_m
    stencil = thermo._stencil(coefficient_table(n_max, kind), m)
    assert np.array_equal(stencil.indptr, 4 * np.arange(m + 1))
    assert np.all(np.diff(stencil.indices.reshape(m, 4), axis=1) > 0)


@pytest.mark.parametrize("x", [CELL_EDGES, *CELL_EDGES], ids=["1d", *map(repr, CELL_EDGES)])
def test_cell_matches_the_int64_form(x):
    # -1e-300 reduces mod 1 to exactly 1.0, so its floor is m, which wraps to cell 0
    m = 1 << 10
    check("cell", x, m)
    got = thermo._cell(x, m)
    assert np.shape(got[0]) == np.shape(x)
    if np.ndim(x) == 0 and x == -1e-300:
        assert (int(got[0]), int(got[1]), float(got[2])) == (0, 1, 0.0)


@pytest.mark.parametrize("index", [0, 3, np.int32(5), np.array(7, dtype=np.int32)],
                         ids=["int", "int_3", "int32", "0d_array"])
def test_interp_cells_at_a_scalar_index_and_zero_offsets(index):
    values = np.array([0.0, -0.0, 1.5, -0.0, 2.0, -3.0, 0.0, -0.0])
    right = (index + 1) % values.size
    for frac in (0.0, -0.0, 0.25, np.float64(0.75), np.array(0.5)):
        check("interp_cells", values, index, right, frac)
        assert np.shape(thermo._interp_cells(values, index, right, frac)) == ()
    # frac = 0 on whole arrays: the gathered left values, sign of zero and all
    j = np.arange(values.size, dtype=np.int32)
    check("interp_cells", values, j, (j + 1) % values.size, np.zeros(values.size))


@pytest.mark.parametrize(
    "build, bound",
    [
        (transfer_matrix, 80),
        (lambda spec, pot: transfer_matrix(spec, pot, 1e4), 90),
        (solve_equilibrium, 100),
        (lambda spec, pot: thermo._stencil.__wrapped__(spec, pot.m), 124),
    ],
    ids=["real", "complex", "solve", "cold_stencil"],
)
def test_transfer_builds_fill_in_only_their_weights(spec, build, bound):
    # On a warm stencil a build allocates its 4m weights (32 bytes per node,
    # 64 twisted) and a few per-branch temporaries: 57 and 81 bytes per node
    # traced, the twisted phase being built in the matrix's own column, and
    # 89 for the solve, which frees the psi matrix, rho, x, f(x) and ln h
    # before it builds the phi matrix and normalizes every iterate in place.
    # A cold stencil traces 116: int32 cells straight from one floor.  With
    # a fresh phase buffer, grid-sized temporaries and int64 cells these
    # read 104, 120 and 132; the COO build traced 212 and 284, the solve 336.
    m = 1 << 16
    pot = srb_potential(spec, m)
    transfer_matrix(spec, pot)
    tracemalloc.start()
    try:
        build(spec, pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * m


def test_solve_reports_nonconvergence(spec, monkeypatch):
    monkeypatch.setattr(thermo, "_EIG_SWEEPS", 1)
    with pytest.raises(thermo.SpectralConvergenceError):
        solve_equilibrium(spec, mme_potential(M))


_SOLVE_AND_PRINT = """
import hashlib
from solenoidlab.circle_map import coefficient_table
from solenoidlab.thermo import solve_equilibrium, srb_potential
spec = coefficient_table(5)
eq = solve_equilibrium(spec, srb_potential(spec, 1 << 14))
for grid in (eq.eigenfunction, eq.density, eq.phi):
    print(hashlib.sha256(grid.values.tobytes()).hexdigest())
print(repr(eq.pressure), repr(eq.lyapunov), repr(eq.dimension))
"""


def test_equilibrium_bits_do_not_follow_the_blas_thread_count():
    # A BLAS dot product over more than 10^4 entries may be split across
    # threads, each split summing in another order; the solve must not call one.
    src = Path(thermo.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )}
        env.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads
        ))
        proc = subprocess.run([sys.executable, "-c", _SOLVE_AND_PRINT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]


def test_linear_mme_equilibrium(lin_eq):
    assert lin_eq.pressure == pytest.approx(LN2, abs=1e-10)
    assert np.allclose(lin_eq.eigenfunction.values, 1.0, atol=1e-8)
    assert np.allclose(lin_eq.density.values, 1.0, atol=1e-8)
    assert np.allclose(lin_eq.phi.values, -LN2, atol=1e-8)
    assert lin_eq.lyapunov == pytest.approx(LN2, abs=1e-10)
    assert lin_eq.dimension == pytest.approx(1.0, abs=1e-8)


def test_linear_srb_equilibrium():
    lin = linear_spec()
    eq = solve_equilibrium(lin, srb_potential(lin, M))
    assert eq.pressure == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(eq.density.values, 1.0, atol=1e-8)


def test_perturbed_pressure_is_entropy(pert_eq):
    assert pert_eq.pressure == pytest.approx(LN2, abs=1e-6)


def _tree_pressure(spec, psi_fn, depth):
    """ln of the weighted preimage count, by full 2^depth tree enumeration.

    Successive differences of ln L_psi^n 1(x0) converge geometrically to the
    pressure; this route uses exact branch solves and exact potential
    values, independent of the grid discretization.
    """
    x0 = np.array([0.37])
    pts = x0
    sums = np.zeros(1)
    prev_log = 0.0
    for level in range(1, depth + 1):
        y0, _ = apply_word(spec, (0,), pts)
        y1, _ = apply_word(spec, (1,), pts)
        pts = np.concatenate([y0, y1])
        sums = np.concatenate([sums, sums]) + psi_fn(pts)
        log_now = float(np.log(np.exp(sums - sums.max()).sum()) + sums.max())
        if level == depth:
            return log_now - prev_log
        prev_log = log_now


def test_pressure_matches_tree_oracle(spec):
    m = 1 << 14
    x = np.arange(m) / m
    psi = GridFunction(0.4 * np.sin(2 * np.pi * x) + 0.1 * np.cos(4 * np.pi * x))
    eq = solve_equilibrium(spec, psi)
    oracle = _tree_pressure(
        spec,
        lambda y: 0.4 * np.sin(2 * np.pi * y) + 0.1 * np.cos(4 * np.pi * y),
        depth=20,
    )
    assert eq.pressure == pytest.approx(oracle, abs=1e-6)


def test_perturbed_srb_dimension(spec):
    eq = solve_equilibrium(spec, srb_potential(spec, 1 << 14))
    assert eq.pressure == pytest.approx(0.0, abs=1e-6)
    assert eq.dimension == pytest.approx(1.0, abs=1e-4)


def test_normalization_invariants(pert_eq):
    spec = pert_eq.spec
    ones = GridFunction.constant(1.0, pert_eq.m)
    lphi1 = transfer_apply(spec, pert_eq.phi, ones)
    assert np.max(np.abs(lphi1.values - 1.0)) < 1e-8
    adj = transfer_matrix(spec, pert_eq.phi).T @ pert_eq.density.values
    err_l1 = np.mean(np.abs(adj - pert_eq.density.values))
    assert err_l1 < 1e-8
    assert abs(np.mean(pert_eq.density.values) - 1.0) < 1e-10
    assert pert_eq.eigenfunction.values.min() > 0.0


def test_normalization_invariants_nonconstant_eigenfunction(spec):
    # a potential whose eigenfunction is genuinely curved; the density is the
    # fixed point of the discrete normalized adjoint, so the residual is the
    # phi-matrix row-sum defect (interpolation-level, shrinking like m^-2)
    m = 1 << 15
    psi = GridFunction(0.3 * np.sin(2 * np.pi * np.arange(m) / m))
    eq = solve_equilibrium(spec, psi)
    assert np.ptp(eq.eigenfunction.values) > 0.01
    ones = GridFunction.constant(1.0, m)
    lphi1 = transfer_apply(spec, eq.phi, ones)
    assert np.max(np.abs(lphi1.values - 1.0)) < 1e-8
    adj = transfer_matrix(spec, eq.phi).T @ eq.density.values
    assert np.mean(np.abs(adj - eq.density.values)) < 1e-8


def test_grid_convergence(spec):
    vals = {}
    for m in (1 << 13, 1 << 14):
        eq = solve_equilibrium(spec, mme_potential(m))
        vals[m] = (eq.pressure, eq.lyapunov, eq.dimension)
    for a, b in zip(*vals.values()):
        assert abs(a - b) < 1e-6


def test_dimension_matches_cylinder_scaling(spec):
    # across levels, the nu-averaged ln nu(U_w) shrinks like dim times the
    # nu-averaged ln diam(U_w) (entropy over expansion) - a geometric route
    # to the dimension, independent of the -(integral of phi)/Lambda formula
    from solenoidlab.symbolic import level_endpoints

    m = 1 << 15
    psi = GridFunction(0.5 * np.sin(2 * np.pi * np.arange(m) / m))
    eq = solve_equilibrium(spec, psi)
    mean_log_mass = []
    mean_log_diam = []
    # cylinders must stay several grid cells wide or the masses smooth out
    for n, masses, _, _ in cylinder_levels(eq, range(6, 13)):
        lengths = np.diff(level_endpoints(spec, n))
        mean_log_mass.append(float((masses * np.log(masses)).sum()))
        mean_log_diam.append(float((masses * np.log(lengths)).sum()))
    slope = np.polyfit(mean_log_diam, mean_log_mass, 1)[0]
    assert slope == pytest.approx(eq.dimension, abs=0.01)


def test_lyapunov_matches_anchor_average(pert_eq):
    (n, masses, s_tau, _), = cylinder_levels(pert_eq, [14])
    rate = float((masses * s_tau).sum() / n)
    assert rate == pytest.approx(pert_eq.lyapunov, abs=1e-3)


def test_gibbs_linear(lin_eq):
    (_, lo, hi), = gibbs_ratio_stats(lin_eq, [10])
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)


def test_gibbs_perturbed_bounded_and_stable(pert_eq):
    extremes = {n: (lo, hi) for n, lo, hi in gibbs_ratio_stats(pert_eq, [5, 10])}
    for lo, hi in extremes.values():
        assert 0.5 < lo <= hi < 2.0
    (lo5, hi5), (lo10, hi10) = extremes[5], extremes[10]
    assert abs(hi10 - hi5) / hi5 < 0.1
    assert abs(lo10 - lo5) / lo5 < 0.1


def test_cylinder_masses_sum_to_one(pert_eq):
    for n, masses, _, _ in cylinder_levels(pert_eq, [6, 12, 16]):
        assert masses.shape == (1 << n,)
        assert abs(masses.sum() - 1.0) < 1e-9
        assert masses.min() >= 0.0


@pytest.mark.parametrize("which", ["mme", "sin"])
def test_cylinder_levels_match_each_level_bit_for_bit(pert_eq, sin_eq, which):
    eq = pert_eq if which == "mme" else sin_eq
    levels = [12, 8, 12, 3]
    got = cylinder_levels(eq, levels)
    assert [row[0] for row in got] == levels
    for n, *arrays in got:
        pts = symbolic.level_endpoints(eq.spec, n)
        want = (
            np.diff(measure_cdf(eq, pts)),
            symbolic.log_expansion_sums(eq.spec, pts)[-1],
            symbolic.tree_birkhoff_sums(pts, eq.phi)[-1],
        )
        for a, b in zip(arrays, want):
            same_bits(a, b)


# Every entry point the lab evaluates on single angles and on arrays alike,
# each returning a tuple of results.
_SHAPED = {
    "bump_chi": lambda eq, x: bump_chi(x - 0.5, eq.spec.bump_kind),
    "g_eval": lambda eq, x: g_eval(eq.spec, x),
    "f_eval": lambda eq, x: f_eval(eq.spec, x),
    "circle_dist": lambda eq, x: (circle_dist(x, 0.75),),
    "grid_function": lambda eq, x: (eq.phi(x),),
    "measure_cdf": lambda eq, x: (measure_cdf(eq, x),),
    "apply_word": lambda eq, x: apply_word(eq.spec, (0, 1, 1), x),
}

# twelve angles in [0, 1], the first four inside the order-2..5 bumps so g is live
_ANGLES = np.concatenate([
    1.0 / (2.0 ** np.arange(2, 6) - 1.0) + 3e-4,
    np.random.default_rng(24).random(8),
])


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["0d", "1d", "2d"])
@pytest.mark.parametrize("name", sorted(_SHAPED))
def test_evaluations_keep_the_input_shape(pert_eq, name, shape):
    # shape in, shape out: each result has x's shape and equals, bit for bit,
    # the evaluation of the raveled x reshaped; a scalar x gives a float
    x = _ANGLES[: math.prod(shape)].reshape(shape)
    x = float(x) if shape == () else x
    call = _SHAPED[name]
    for got, flat in zip(call(pert_eq, x), call(pert_eq, np.ravel(x)), strict=True):
        assert np.shape(got) == shape
        same_bits(np.asarray(got), flat.reshape(shape))
        assert isinstance(got, float) == (shape == ())


def test_level_cap_raises_before_any_tree(spec, pert_eq, monkeypatch):
    cap = symbolic._MAX_LEVEL
    built = []
    real = symbolic._zero_endpoints

    def spy(spec, n):
        built.append(n)
        if n > cap:
            raise AssertionError(f"a level-{n} tree was started")
        return real(spec, n)

    monkeypatch.setattr(symbolic, "_zero_endpoints", spy)
    calls = [
        lambda: symbolic.level_endpoints(spec, cap + 1),
        lambda: cylinder_levels(pert_eq, []),
        lambda: cylinder_levels(pert_eq, [0]),
        lambda: cylinder_levels(pert_eq, [12, 0]),
        lambda: cylinder_levels(pert_eq, [cap + 1]),
        lambda: gibbs_ratio_stats(pert_eq, [cap + 1]),
        lambda: regular_words(pert_eq, cap, 0.1),
        lambda: symbolic.cylinder_rows(spec, 0),
        lambda: symbolic.cylinder_rows(spec, cap + 1),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # only cylinder_rows(spec, 0) reaches the tree, at level 0
    assert built == [0]


def test_upper_regularity_linear(lin_eq):
    radii = [2.0**-k for k in range(3, 11)]
    slope = upper_regularity_exponent(lin_eq, radii)
    assert slope == pytest.approx(1.0, abs=0.02)


def test_upper_regularity_perturbed(pert_eq):
    radii = [2.0**-k for k in range(3, 11)]
    slope = upper_regularity_exponent(pert_eq, radii)
    assert slope > 0.9
    assert slope > 0.0


def test_deviation_profile_linear_all_zero(lin_eq):
    prof = large_deviation_profile(lin_eq, 0.05, range(4, 11))
    assert all(f == 0.0 for _, f in prof.entries)
    assert prof.fitted_rate == 0.0
    for outside in ([6, 17], [0, 6]):
        with pytest.raises(ValueError):
            large_deviation_profile(lin_eq, 0.05, outside)


def test_deviation_profile_huge_epsilon(pert_eq):
    prof = large_deviation_profile(pert_eq, 2.0, [6, 8, 10])
    assert all(f == 0.0 for _, f in prof.entries)


def test_deviation_profile_perturbed_mme_scale(pert_eq):
    # the bump perturbation moves Birkhoff averages by ~1e-4 at most, so the
    # anchor-tested fractions are nonzero only once epsilon enters that scale
    prof = large_deviation_profile(pert_eq, 1e-5, range(6, 15))
    fractions = [f for _, f in prof.entries]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert any(f > 0.0 for f in fractions)


def test_deviation_profile_generic_potential_decays(sin_eq):
    # an O(1) Hoelder potential gives fluctuations measurable at n <= 14
    prof = large_deviation_profile(sin_eq, 0.25, range(6, 15))
    fractions = [f for _, f in prof.entries]
    assert any(f > 0.0 for f in fractions)
    assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))
    assert prof.fitted_rate < 0.0


_NAN = float("nan")
_NAN_FREQUENCIES = 10.0 * 2.0 ** np.array([0, 1, 2, _NAN, 4, 5, 6, 7, 8, 9])


def _decay_series(bad):
    """Ten frequencies 10 2^i with moduli 1/f, the fourth modulus replaced by bad."""
    freqs = 10.0 * 2.0 ** np.arange(10)
    return [(f, bad if i == 3 else 1.0 / f) for i, f in enumerate(freqs)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda eq: nonconcentration_count(ZetaTable(np.array([1.0, 2.0])), _NAN), "sigma"),
        (lambda eq: large_deviation_profile(eq, _NAN, [2, 4]), "epsilon"),
        (lambda eq: regular_words(eq, 6, _NAN), "epsilon"),
        (lambda eq: upper_regularity_exponent(eq, [0.1, _NAN, 0.01]), "radii"),
        (lambda eq: decay_exponent([(f, f**-0.5) for f in _NAN_FREQUENCIES]), "frequencies"),
        (lambda eq: GridFunction(np.append(np.zeros(1023), _NAN)), "finite"),
        (lambda eq: GridFunction(np.append(np.zeros(1023), math.inf)), "finite"),
        (lambda eq: decay_exponent(_decay_series(math.inf)), "moduli"),
        (lambda eq: decay_exponent(_decay_series(_NAN)), "moduli"),
        (lambda eq: mu_hat(eq, (1.0, _NAN, 0.0), samples=1000), "xi"),
        (lambda eq: mu_hat(eq, (math.inf, 0.0, 0.0), samples=1000), "xi"),
        (lambda eq: twisted_norm_profile(eq, _NAN, 3), "t must be finite"),
        (lambda eq: twisted_norm_profile(eq, math.inf, 3), "t must be finite"),
    ],
    ids=["nonconcentration_count", "large_deviation_profile", "regular_words",
         "upper_regularity_exponent", "decay_exponent",
         "grid_function_nan", "grid_function_inf", "decay_exponent_inf_modulus",
         "decay_exponent_nan_modulus", "mu_hat_nan_xi", "mu_hat_inf_xi",
         "twisted_norm_profile_nan_t", "twisted_norm_profile_inf_t"],
)
def test_nan_fails_the_positivity_checks(lin_eq, call, message):
    with pytest.raises(ValueError, match=message):
        call(lin_eq)


def test_regular_words_linear(lin_eq):
    # every word of length n + 1 is regular at any positive epsilon
    words, benchmark = regular_words(lin_eq, 8, 0.01)
    assert words.size == 1 << 9
    assert benchmark == pytest.approx(2.0**8, rel=1e-6)


def test_regular_words_cardinality_comparison(pert_eq):
    beta = 1.2  # recorded envelope constant for the cardinality comparison
    n, eps = 12, 0.05
    words, benchmark = regular_words(pert_eq, n, eps)
    ratio = words.size / benchmark
    assert math.exp(-eps * beta * n) <= ratio <= math.exp(eps * beta * n)


def test_regular_words_monotone_in_epsilon(pert_eq):
    small, _ = regular_words(pert_eq, 10, 1e-5)
    large, _ = regular_words(pert_eq, 10, 1e-3)
    assert set(small).issubset(set(large))


def test_regular_words_window(pert_eq):
    words, _ = regular_words(pert_eq, 8, 0.5, window=(0.0, 0.25))
    assert 0 < words.size <= (1 << 9)
    assert words.size <= (1 << 7) + 2  # only cylinders meeting [0, 1/4]


@pytest.mark.parametrize(
    "which, n, eps, window",
    [
        ("lin", 8, 0.01, None),
        ("pert", 12, 0.05, None),
        ("pert", 10, 1e-5, None),
        ("pert", 10, 1e-3, None),
        ("pert", 8, 0.5, (0.0, 0.25)),
        ("pert", 14, 3e-5, None),
    ],
)
def test_regular_words_match_the_forward_walk(lin_eq, pert_eq, monkeypatch, which, n, eps, window):
    eq = lin_eq if which == "lin" else pert_eq
    seen = []
    real = thermo._outside_windows

    def spy(eq, s_tau, s_phi, n, epsilon):
        seen.append((s_tau, s_phi))
        return real(eq, s_tau, s_phi, n, epsilon)

    monkeypatch.setattr(thermo, "_outside_windows", spy)
    words, _ = regular_words(eq, n, eps, window)
    pts = symbolic.level_endpoints(eq.spec, n + 1)
    anchors = symbolic.endpoint_anchors(pts)
    s_tau = birkhoff_sums(eq.spec, anchors, n, lambda x: np.log(f_eval(eq.spec, x)[1]))
    s_phi = birkhoff_sums(eq.spec, anchors, n, eq.phi)
    (got_tau, got_phi), = seen
    assert np.max(np.abs(got_tau - s_tau)) < 1e-13
    assert np.max(np.abs(got_phi - s_phi)) < 1e-13
    good = ~real(eq, s_tau, s_phi, n, eps)
    if window is not None:
        good &= (pts[:-1] < window[1]) & (pts[1:] > window[0])
    assert np.array_equal(words, np.nonzero(good)[0])


def test_sample_uniform_ks(lin_eq):
    pts = sample(lin_eq, 100_000, seed=42)
    pts_sorted = np.sort(pts)
    grid = (np.arange(pts.size) + 0.5) / pts.size
    ks = np.max(np.abs(pts_sorted - grid)) + 0.5 / pts.size
    assert ks < 0.01


def test_sample_deterministic(pert_eq):
    a = sample(pert_eq, 1000, seed=7)
    b = sample(pert_eq, 1000, seed=7)
    assert np.array_equal(a, b)


def test_sample_mean_log_deriv_matches_lyapunov(pert_eq):
    pts = sample(pert_eq, 1_000_000, seed=3)
    _, fp = f_eval(pert_eq.spec, pts)
    vals = np.log(fp)
    err = 3.0 * vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - pert_eq.lyapunov) < err


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["mme", "srb", "sin", "flat"])
def test_sample_cells_match_binary_search_at_the_edges(kind):
    # fractions at and one double either side of each node's cdf / total and
    # each guide-table key's k / m, including 0 and 1 (u = total), which no
    # generator draws: ties in the flat stretch and u = total must resolve to
    # the cells binary search finds
    eq = equilibrium(kind)
    cdf, total = thermo._node_cdf(eq)
    r = np.concatenate([cdf / total, np.arange(eq.m + 1) / eq.m])
    r = np.clip(np.concatenate([r, np.nextafter(r, 0.0), np.nextafter(r, 2.0)]), 0.0, 1.0)
    assert r.max() * total == total
    check("sample", eq, r)


@pytest.mark.parametrize("count", [(1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 7])
def test_sample_blocks_match_binary_search_at_block_edges(count):
    # sample runs its cell search and root over blocks of 2^14 draws; a count
    # either side of a block edge, or ending in a short block, must give the
    # same bits as one pass, and a shorter run is a prefix of a longer one
    assert thermo._SAMPLE_BLOCK == 1 << 14
    eq, seed = equilibrium("sin"), 12
    check("sample", eq, np.random.default_rng(seed).random(count))
    assert np.array_equal(sample(eq, count, seed), sample(eq, 4 << 14, seed)[:count])


def test_sample_keeps_only_its_draws_at_full_length(spec):
    # a one-pass sample traces 64.8 bytes per draw in full-length temporaries;
    # the blocked one keeps the draws (8 bytes) and one block's temporaries
    # (about 6 at this count): one more full-length float would make it 22.5
    eq = solve_equilibrium(spec, mme_potential(M))
    count = 1 << 18
    tracemalloc.start()
    try:
        sample(eq, count, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * count


@settings(max_examples=50)
@given(kind=st.sampled_from(("sin", "mme")), seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, 50_000))
def test_property_sample_inverts_measure_cdf(kind, seed, count):
    # sample draws u = rng.random(count) and solves nu([0, x]) = u in x.  The
    # textbook root (disc - a) / b loses up to 5.6e-9 to cancellation on nearly
    # flat mme cells (a dense scan of the flattest ones), and inverting
    # linearly, t = local / a, misses by up to 4.3e-4; the rationalized root
    # 2 local / (a + disc) cancels nowhere and misses by a few ulps.
    eq = equilibrium(kind)
    u = np.random.default_rng(seed).random(count)
    assert np.abs(measure_cdf(eq, sample(eq, count, seed)) - u).max() < 1e-14
