"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report lines.  Criterion 6 asserts contraction strength at twist frequency
100 for the coefficient family built here; the measured slope at that
frequency is orders of magnitude shallower (the family's nonlinearity is
sup|g'| ~ 6.6e-4 in C^1), so that single assertion fails honestly while the
supplementary high-frequency run demonstrates the contraction contrast.
"""

import json
import math
import time

import numpy as np
import pytest

from reference import pair_counts
from solenoidlab.circle_map import (
    circle_dist,
    coefficient_table,
    f_eval,
    linear_spec,
    lyapunov_target,
    verify_lattice,
)
from solenoidlab.cli import main as cli_main
from solenoidlab.fourier import decay_exponent, dyadic_frequencies, mu_hat, nu_hat
from solenoidlab.solenoid import (
    SolenoidPoint,
    bunching_margin,
    jacobian,
    periodic_orbit,
    step,
)
from solenoidlab.thermo import (
    GridFunction,
    gibbs_ratio_stats,
    large_deviation_profile,
    mme_potential,
    solve_equilibrium,
    srb_potential,
    upper_regularity_exponent,
)
from solenoidlab.twisted import (
    ZetaTable,
    concentration_report,
    exp_sum,
    nonconcentration_count,
    twisted_norm_profile,
    zeta_table,
)

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def spec():
    return coefficient_table(5)


@pytest.fixture(scope="module")
def lin_eq():
    return solve_equilibrium(linear_spec(), mme_potential(1 << 14))


@pytest.fixture(scope="module")
def pert_eq(spec):
    return solve_equilibrium(spec, mme_potential(1 << 14))


def _report(num: int, name: str, elapsed: float, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f} s) {name}")
    for label, flag in checks:
        if not flag:
            print(f"    failed: {label}")
    assert ok, f"criterion {num} failed: " + "; ".join(l for l, f in checks if not f)


def test_criterion_1_coefficient_exactness(spec):
    start = time.time()
    checks = []
    for N in range(2, 6):
        orbit = periodic_orbit(spec, N)
        theta, lam = orbit.points[0].theta, orbit.unstable_exponent
        residual = circle_dist(f_eval(spec, orbit.points[-1].theta)[0], theta)
        closed = LN2 + math.log1p(spec.alphas[N - 2] / 2.0) / N
        target = lyapunov_target(spec, N)
        checks.append((f"N={N} periodic residual {residual:.2e} < 1e-12", residual < 1e-12))
        checks.append((f"N={N} exponent vs closed form", abs(lam - closed) < 1e-12))
        checks.append((f"N={N} exponent vs prescribed target", abs(lam - target) < 1e-12))
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.2f} s < 1 s", elapsed < 1.0))
    _report(1, "coefficient-family exactness", elapsed, checks)


def test_criterion_2_lattice_exact_verification():
    start = time.time()
    good = verify_lattice(20)
    bad = verify_lattice(20, radius_base=2)
    elapsed = time.time() - start
    checks = [
        ("order-20 disjointness", good.disjoint_ok),
        ("order-20 exclusions", good.exclusions_ok),
        (f"all {good.exclusions_checked} exclusion points checked", good.exclusions_checked == 190),
        ("mutated radius fails", not bad.ok),
        (f"runtime {elapsed:.2f} s < 1 s", elapsed < 1.0),
    ]
    _report(2, "exact rational lattice verification", elapsed, checks)


def test_criterion_3_solenoid_structure(spec):
    start = time.time()
    rng = np.random.default_rng(123)
    checks = []

    worst_fd = 0.0
    worst_det = 0.0
    h = 1e-6
    for _ in range(1000):
        p = np.array([rng.random(), 0.6 * rng.random() - 0.3, 0.6 * rng.random() - 0.3])
        jac = jacobian(spec, SolenoidPoint(*p))
        _, deriv = step(spec, SolenoidPoint(*p))
        worst_det = max(worst_det, abs(np.linalg.det(jac) - deriv / 16.0))
        fd = np.empty((3, 3))
        for j in range(3):
            lo, hi = p.copy(), p.copy()
            lo[j] -= h
            hi[j] += h
            a, _ = step(spec, SolenoidPoint(*lo))
            b, _ = step(spec, SolenoidPoint(*hi))
            fd[:, j] = (np.array(b) - np.array(a)) / (2 * h)
        # central differences across the mod-1 seam wrap; compare on the lift
        if abs(fd[0, 0] - jac[0, 0]) > 1.0:
            fd[0, 0] = jac[0, 0]
        worst_fd = max(worst_fd, np.max(np.abs(fd - jac)))
    checks.append((f"jacobian vs finite differences {worst_fd:.2e} < 1e-6", worst_fd < 1e-6))
    checks.append((f"det = f'/16 to {worst_det:.2e} < 1e-12", worst_det < 1e-12))

    for N in range(2, 6):
        orbit = periodic_orbit(spec, N)
        closing, _ = step(spec, orbit.points[-1])
        p0 = orbit.points[0]
        residual = max(
            min(abs(closing.theta - p0.theta), 1 - abs(closing.theta - p0.theta)),
            abs(closing.x - p0.x),
            abs(closing.y - p0.y),
        )
        checks.append((f"orbit N={N} residual {residual:.2e} < 1e-12", residual < 1e-12))
        err = abs(orbit.unstable_exponent - lyapunov_target(spec, N))
        checks.append((f"orbit N={N} exponent to 1e-12", err < 1e-12))

    margin = bunching_margin(spec, 1 << 16)
    checks.append((f"bunching margin {margin:.4f} < 1", margin < 1.0))
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.2f} s < 5 s", elapsed < 5.0))
    _report(3, "solenoid structure", elapsed, checks)


def test_criterion_4_linear_oracle(lin_eq):
    start = time.time()
    checks = [
        ("P = ln 2 +- 1e-10", abs(lin_eq.pressure - LN2) < 1e-10),
        ("rho = 1 +- 1e-8", np.max(np.abs(lin_eq.density.values - 1.0)) < 1e-8),
        ("Lambda = ln 2 +- 1e-10", abs(lin_eq.lyapunov - LN2) < 1e-10),
        ("dimension = 1 +- 1e-8", abs(lin_eq.dimension - 1.0) < 1e-8),
    ]
    (_, lo, hi), = gibbs_ratio_stats(lin_eq, [10])
    checks.append(("Gibbs ratios = 1 +- 1e-8 at n=10", max(abs(lo - 1), abs(hi - 1)) < 1e-8))
    worst = max(abs(nu_hat(lin_eq, 2.0 * math.pi * k)) for k in (1, 2, 5, 32, 512))
    checks.append((f"nu_hat(2 pi k) = 0 +- 1e-10 (worst {worst:.2e})", worst < 1e-10))
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.2f} s < 10 s", elapsed < 10.0))
    _report(4, "linear-map oracle suite", elapsed, checks)


def test_criterion_5_perturbed_thermodynamics(spec, pert_eq):
    start = time.time()
    checks = [
        (
            f"P(0) = ln 2 +- 1e-6 (got {pert_eq.pressure - LN2:+.2e})",
            abs(pert_eq.pressure - LN2) < 1e-6,
        )
    ]
    srb = solve_equilibrium(spec, srb_potential(spec, 1 << 14))
    checks.append(
        (f"SRB dimension = 1 +- 1e-4 (got {srb.dimension - 1.0:+.2e})", abs(srb.dimension - 1.0) < 1e-4)
    )

    extremes = {n: (lo, hi) for n, lo, hi in gibbs_ratio_stats(pert_eq, [8, 10, 12])}
    in_range = all(0.5 <= lo <= hi <= 2.0 for lo, hi in extremes.values())
    checks.append(("Gibbs extremes within [0.5, 2]", in_range))
    los = [lo for lo, _ in extremes.values()]
    his = [hi for _, hi in extremes.values()]
    stable = (max(his) - min(his)) / min(his) < 0.1 and (max(los) - min(los)) / min(los) < 0.1
    checks.append(("Gibbs extremes vary < 10% across n", stable))

    slope = upper_regularity_exponent(pert_eq, [2.0**-k for k in range(3, 11)])
    checks.append((f"upper-regularity slope {slope:.3f} > 0.9", slope > 0.9))

    # the deviation property needs an equilibrium state whose Birkhoff
    # fluctuations are visible at n <= 14; the zero potential's are ~1e-5,
    # so certify the property on a generic Hoelder potential of this map
    m = pert_eq.m
    psi = GridFunction(0.5 * np.sin(2 * np.pi * np.arange(m) / m))
    holder_eq = solve_equilibrium(spec, psi)
    prof = large_deviation_profile(holder_eq, 0.25, range(6, 15))
    fractions = [f for _, f in prof.entries]
    mono = all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))
    checks.append(("deviation fractions non-increasing over n=6..14", mono))
    checks.append((f"fitted rate {prof.fitted_rate:.3f} < 0", prof.fitted_rate < 0.0))
    checks.append(("fractions start positive", fractions[0] > 0.0))

    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.2f} s < 60 s", elapsed < 60.0))
    _report(5, "perturbed-map thermodynamics", elapsed, checks)


def test_criterion_6_twisted_contrast(lin_eq, pert_eq):
    start = time.time()
    steps = np.arange(1, 81)

    prof_pert = twisted_norm_profile(pert_eq, 100.0, 80)
    slope_pert = float(np.polyfit(steps, np.log(prof_pert), 1)[0])

    prof_lin = twisted_norm_profile(lin_eq, 100.0, 80)
    slope_lin = float(np.polyfit(steps, np.log(prof_lin), 1)[0])
    lin_const = np.max(np.abs(prof_lin - 1.0))

    # supplementary diagnostic: the contraction is present but needs higher
    # frequency at this nonlinearity strength
    prof_hi = twisted_norm_profile(pert_eq, 1e4, 80)
    slope_hi = float(np.polyfit(steps, np.log(prof_hi), 1)[0])
    print(
        f"    [info] measured slopes: t=100 {slope_pert:+.3e}, t=1e4 {slope_hi:+.3e}, "
        f"linear t=100 {slope_lin:+.1e}"
    )

    elapsed = time.time() - start
    checks = [
        (
            f"perturbed slope at t=100 is {slope_pert:+.3e}, required < -5e-3",
            slope_pert < -5e-3,
        ),
        (f"perturbed profile decreasing at t=100", slope_pert < 0.0),
        (f"linear profile constant 1 (max dev {lin_const:.1e})", lin_const < 1e-12),
        ("linear slope = 0 (within 1e-12)", abs(slope_lin) < 1e-12),
        (f"runtime {elapsed:.2f} s < 30 s", elapsed < 30.0),
    ]
    _report(6, "twisted-operator contraction contrast", elapsed, checks)


def test_criterion_7_nonconcentration_and_sums(pert_eq):
    start = time.time()
    checks = []

    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(2, 2001))
        scale = float(rng.choice([1e-4, 1e-2, 1.0]))
        vals = 1.0 + scale * rng.random(n)
        vals[rng.integers(0, n, size=n // 4)] = vals[0]  # force ties
        table = ZetaTable(vals)
        sigma = float(rng.choice([1e-5, 1e-3, 0.05, 0.5]) * scale + 1e-12)
        fast = nonconcentration_count(table, sigma)
        if fast != pair_counts(vals, [sigma])[0]:
            mismatches += 1
    checks.append((f"pair counts match brute force on 50 cases ({mismatches} mismatches)", mismatches == 0))

    table = zeta_table(pert_eq, tuple(int(c) for c in "0101010101010"), 12)
    report = concentration_report(table, np.geomspace(1e-4, 1e-1, 10))
    checks.append((f"fitted gamma_emp {report.gamma_emp:.3f} > 0", report.gamma_emp > 0.0))
    monotone = all(a <= b for a, b in zip(report.counts, report.counts[1:]))
    checks.append(("counts nondecreasing in sigma", monotone))

    n = 12
    eps0 = 0.26  # J_n then spans two decades at this block length
    etas = np.geomspace(math.exp(eps0 * n / 2), math.exp(2 * eps0 * n), 12)
    assert etas[-1] / etas[0] >= 100.0
    mods = exp_sum(etas, [table, table]).moduli
    slope = float(np.polyfit(np.log(etas), np.log(mods), 1)[0])
    checks.append((f"exp_sum fitted slope {slope:+.2e} < 0 over J_n", slope < 0.0))

    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.2f} s < 120 s", elapsed < 120.0))
    _report(7, "non-concentration and exponential sums", elapsed, checks)


def test_criterion_8_fourier_decay(spec):
    start = time.time()
    eq = solve_equilibrium(spec, mme_potential(1 << 17))
    freqs = dyadic_frequencies(100.0, 11)
    series = [(float(t), abs(nu_hat(eq, t))) for t in freqs]
    fit = decay_exponent(series)
    checks = [
        (f"decay exponent {fit.exponent:.3f} < -0.05", fit.exponent < -0.05),
        (
            f"slope stderr {fit.stderr:.3f} < half magnitude",
            fit.stderr < 0.5 * abs(fit.exponent),
        ),
    ]
    for i, t in enumerate((10.0, 100.0, 1000.0)):
        value, err = mu_hat(eq, (t, 0.0, 0.0), samples=1_000_000, seed=100 + i)
        ref = nu_hat(eq, t)
        checks.append(
            (
                f"mu_hat vs nu_hat at t={t:.0f}: |diff| {abs(value - ref):.2e} < 3 stderr",
                abs(value - ref) < 3.0 * err,
            )
        )
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.2f} s < 300 s", elapsed < 300.0))
    _report(8, "Fourier decay in the unstable direction", elapsed, checks)


def test_criterion_9_manifest_determinism(tmp_path):
    start = time.time()
    first = tmp_path / "first"
    second = tmp_path / "second"
    base = [
        "--grid",
        "4096",
        "--samples",
        "20000",
    ]
    assert cli_main(["fourier", "--out", str(first)] + base) == 0
    assert cli_main(["nonconc", "--out", str(first), "--grid", "4096", "--zeta-n", "8",
                     "--context", "010101010"]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["experiment"] == "nonconc"

    assert cli_main(["fourier", "--out", str(second)] + base) == 0
    assert cli_main(["nonconc", "--out", str(second), "--config", str(first / "manifest.json")]) == 0

    checks = []
    for name in ("decay.csv", "summary.json", "nonconc.csv", "nonconc.json"):
        same = (first / name).read_bytes() == (second / name).read_bytes()
        checks.append((f"{name} byte-identical on re-run", same))
    elapsed = time.time() - start
    checks.append((f"runtime {elapsed:.2f} s", True))
    _report(9, "manifest determinism", elapsed, checks)
