"""Output checks on one repetition's artifacts, run after timing.

Every expected value is recomputed here from the artifacts' inputs (the
density, phi and coefficients in `equilibrium.json`, the resolved config)
by a route of the benchmark's own, never copied from an earlier output.
Each check returns `(ok, detail)`; a tolerance is stated next to the
signal it guards and is always smaller than that signal.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)

# mu_hat is a Monte-Carlo mean: |mu_hat - nu_hat| / stderr is Rayleigh
# distributed, so P(diff > 4 stderr) = e^-16 per cross-check
MC_SIGMAS = 4.0


def _rows(out: Path, name: str) -> list[list[str]]:
    lines = (out / name).read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _column(out: Path, name: str, index: int) -> np.ndarray:
    return np.array([float(r[index]) for r in _rows(out, name)])


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _equilibrium(out: Path):
    """EquilibriumData rebuilt from equilibrium.json."""
    from solenoidlab.circle_map import PerturbationSpec
    from solenoidlab.thermo import EquilibriumData, GridFunction

    doc = _json(out, "equilibrium.json")
    return EquilibriumData(
        spec=PerturbationSpec.from_json(json.dumps(doc["spec"])),
        potential_psi=GridFunction(np.array(doc["psi"])),
        pressure=float(doc["pressure"]),
        eigenfunction=GridFunction(np.array(doc["eigenfunction"])),
        density=GridFunction(np.array(doc["density"])),
        phi=GridFunction(np.array(doc["phi"])),
        lyapunov=float(doc["lyapunov"]),
        dimension=float(doc["dimension"]),
    )


def density_transform(rho: np.ndarray, t: float) -> complex:
    """Exact integral of e^{i t x} against the normalized piecewise-linear density.

    Cell j is written about its midpoint c: rho(c + s) = rbar + slope s for
    |s| <= a = h/2, and the two moments of e^{i t s} over [-a, a] are
    2 sin(ta)/t and 2i (sin(ta) - ta cos(ta)) / t^2 (a series when ta is small).
    """
    m = rho.size
    rho = rho / rho.mean()
    nxt = np.roll(rho, -1)
    rbar = 0.5 * (rho + nxt)
    slope = (nxt - rho) * m
    a = 0.5 / m
    x = t * a
    m0 = 2.0 * math.sin(x) / t
    if x < 0.1:
        odd = x**3 / 3.0 - x**5 / 30.0 + x**7 / 840.0 - x**9 / 45360.0
    else:
        odd = math.sin(x) - x * math.cos(x)
    m1 = 2j * odd / t**2
    mid = (np.arange(m) + 0.5) / m
    return complex(np.sum(np.exp(1j * t * mid) * (rbar * m0 + slope * m1)))


def _slope(x, y) -> float:
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# decay and coding: the maximal-entropy equilibrium
# ---------------------------------------------------------------------------

def check_pressure_ln2(out: Path, config: dict):
    # the mme pressure is the entropy ln 2 of the degree-2 covering; the
    # zero potential's collocation matrix has row sums exactly 2
    p = float(_json(out, "equilibrium.json")["pressure"])
    return abs(p - LN2) <= 1e-12, f"pressure={p!r} ln2={LN2!r}"


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def check_decay_moduli_exact(out: Path, config: dict):
    rho = np.array(_json(out, "equilibrium.json")["density"])
    freqs = _column(out, "decay.csv", 0)
    mods = _column(out, "decay.csv", 1)
    want = np.array([abs(density_transform(rho, t)) for t in freqs])
    expected = config["freq_base"] * 2.0 ** np.arange(config["freq_count"])
    # smallest modulus ~2e-5; 1e-9 relative sits far below it
    worst = float(np.max(np.abs(mods - want) / want))
    ok = np.array_equal(freqs, expected) and worst <= 1e-9
    return bool(ok), f"max rel diff {worst:.2e} over {freqs.size} freqs"


def check_decay_exponent(out: Path, config: dict):
    summary = _json(out, "summary.json")
    exponent = float(summary["exponent"])
    own = _slope(np.log(_column(out, "decay.csv", 0)), np.log(_column(out, "decay.csv", 1)))
    ok = exponent < -0.05 and _rel(exponent, own) <= 1e-9
    return ok, f"exponent={exponent:.6f} refit={own:.6f} (need < -0.05)"


def check_mu_nu_marginal(out: Path, config: dict):
    """mu_hat of the solenoid measure agrees with nu_hat of its angular marginal.

    Guarded only where |nu_hat| exceeds the Monte-Carlo tolerance, so that
    the tolerance stays below the signal; at the default 10^6 samples that
    is t = 10 and t = 100, while t = 1000 sits under the floor.
    """
    rho = np.array(_json(out, "equilibrium.json")["density"])
    cross = _json(out, "summary.json")["marginal_cross_check"]
    samples = config["mu_samples"]
    ts = [float(c["t"]) for c in cross]
    ok = ts == [float(t) for t in config["mu_cross_t"]]
    guarded = []
    for c, t in zip(cross, ts):
        nu = abs(density_transform(rho, t))
        mu = float(c["mu_hat_mod"])
        diff = float(c["abs_diff"])
        err = float(c["stderr"])
        # the stderr of a unit-modulus mean is sqrt((1 - |mean|^2) / n)
        ok &= _rel(err, math.sqrt((1.0 - mu * mu) / samples)) <= 1e-6
        ok &= _rel(float(c["nu_hat_mod"]), nu) <= 1e-9
        ok &= abs(mu - nu) <= diff * (1 + 1e-12) + 1e-15
        tol = MC_SIGMAS * err
        if nu > tol:
            guarded.append(t)
            ok &= diff <= tol
    ok &= len(guarded) >= 1
    return bool(ok), f"guarded t={guarded} at {MC_SIGMAS:g} stderr"


# ---------------------------------------------------------------------------
# coding
# ---------------------------------------------------------------------------

def check_cylinders_tile(out: Path, config: dict):
    rows = _rows(out, "cylinders.csv")
    words = [r[0] for r in rows]
    lo, hi, anchor = (np.array([float(r[k]) for r in rows]) for k in (1, 2, 3))
    n = len(words[0])
    ok = words == [format(i, f"0{n}b") for i in range(1 << n)]
    ok &= lo[0] == 0.0 and hi[-1] == 1.0
    ok &= bool(np.all(hi[:-1] == lo[1:]) and np.all(lo < hi))
    ends_one = np.array([w[-1] == "1" for w in words])
    ok &= bool(np.all(anchor == np.where(ends_one, hi, lo)))
    return bool(ok), f"{len(rows)} level-{n} cylinders"


def check_anchors_forward(out: Path, config: dict):
    """f^n sends every anchor to 0 mod 1, and prod f' along the way is 1/deriv."""
    from solenoidlab.circle_map import circle_dist, f_eval

    spec = _equilibrium(out).spec
    rows = _rows(out, "cylinders.csv")
    n = len(rows[0][0])
    x = np.array([float(r[3]) for r in rows])
    deriv = np.array([float(r[4]) for r in rows])
    prod = np.ones_like(x)
    for _ in range(n):
        x, fp = f_eval(spec, x)
        prod *= fp
    # an anchor error grows by 2^n <= 2^16 ~ 7e4 from 1e-16: 1e-10 bounds it,
    # far below the cylinder width 2^-n it guards
    miss = float(np.max(circle_dist(x, 0.0)))
    # deriv differs from 2^-n by up to ~3e-4 relative: 1e-12 guards that
    inv = float(np.max(np.abs(prod * deriv - 1.0)))
    signal = float(np.max(np.abs(deriv * 2.0**n - 1.0)))
    ok = miss <= 1e-10 and inv <= 1e-12
    return ok, f"max |f^n - 0|={miss:.1e} max |prod*deriv-1|={inv:.1e} (nonlinearity {signal:.1e})"


def check_deviations(out: Path, config: dict):
    ns = _column(out, "deviations.csv", 0)
    fr = _column(out, "deviations.csv", 1)
    rate = float(_json(out, "deviations.json")["fitted_rate"])
    pos = fr > 0
    own = _slope(ns[pos], np.log(fr[pos])) if pos.sum() >= 2 else 0.0
    ok = list(ns) == [float(n) for n in config["deviation_levels"]]
    ok &= bool(np.all((fr >= 0.0) & (fr <= 1.0)))
    ok &= rate < 0.0 and _rel(rate, own) <= 1e-9
    return bool(ok), f"fractions in [{fr.min():.3g}, {fr.max():.3g}] rate={rate:.4f}"


def _zeta_values(out: Path, config: dict) -> np.ndarray:
    from solenoidlab.twisted import zeta_table

    context = tuple(int(c) for c in config["zeta_context"])
    return zeta_table(_equilibrium(out), context, config["zeta_n"]).values


def check_nonconc_bruteforce(out: Path, config: dict):
    """Pair counts at the two smallest unsaturated sigma equal an all-pairs count."""
    v = _zeta_values(out, config)
    N = v.size
    rows = [(float(r[0]), int(r[1]), float(r[2])) for r in _rows(out, "nonconc.csv")]
    ok = _json(out, "nonconc.json")["N"] == N
    ok &= all(frac == c / N**2 for _, c, frac in rows)
    picked = [(s, c) for s, c, _ in rows if N < c < N * N][:2]
    ok &= len(picked) == 2
    brute = [0] * len(picked)
    for i in range(0, N, 512):
        gap = np.abs(v[i:i + 512, None] - v[None, :])
        for k, (s, _) in enumerate(picked):
            brute[k] += int(np.count_nonzero(gap <= s))
    ok &= brute == [c for _, c in picked]
    return bool(ok), f"N={N} sigma/count={picked} brute={brute}"


def check_expsum_direct(out: Path, config: dict):
    """The largest eta's modulus equals the unmerged double sum over all pairs."""
    v = _zeta_values(out, config)
    etas = _column(out, "expsum.csv", 0)
    mods = _column(out, "expsum.csv", 1)
    k = int(np.argmax(etas))
    eta = float(etas[k])
    total = 0j
    for i in range(0, v.size, 512):
        total += np.exp(1j * eta * np.multiply.outer(v[i:i + 512], v)).sum()
    direct = float(abs(total)) / v.size**2
    # the signal is the sum's distance from 1; 1e-9 sits far below it
    ok = config["expsum_k"] == 2 and abs(direct - mods[k]) <= 1e-9
    return ok, f"eta={eta:.4g} csv={float(mods[k])!r} direct={direct!r} (1-|S|={1 - direct:.2e})"


def check_moduli_at_most_1(out: Path, config: dict):
    mods = _column(out, "expsum.csv", 1)
    fracs = _column(out, "nonconc.csv", 2)
    ok = bool(np.all((mods > 0.0) & (mods <= 1.0)) and np.all(fracs <= 1.0))
    return ok, f"max modulus {float(mods.max())!r}"


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def check_srb_pressure_dimension(out: Path, config: dict):
    doc = _json(out, "equilibrium.json")
    # grid tolerance m^-2 (linear interpolation): 6e-11 at m = 2^17, below
    # the 3e-10 by which the maximal-entropy state's dimension falls short of 1
    tol = float(doc["m"]) ** -2
    p = float(doc["pressure"])
    d = float(doc["dimension"])
    ok = doc["potential"] == "srb" and abs(p) <= tol and abs(d - 1.0) <= tol
    return ok, f"pressure={p:.2e} dim-1={d - 1:.2e} tol={tol:.1e}"


def check_density_positive_mean_1(out: Path, config: dict):
    rho = np.array(_json(out, "equilibrium.json")["density"])
    ok = bool(np.all(rho > 0.0)) and abs(rho.mean() - 1.0) <= 1e-12
    return ok, f"min={rho.min():.6f} mean-1={rho.mean() - 1:.1e}"


def check_lyapunov_range(out: Path, config: dict):
    from solenoidlab.circle_map import f_eval
    from solenoidlab.thermo import nodes

    doc = _json(out, "equilibrium.json")
    eq = _equilibrium(out)
    log_fp = np.log(f_eval(eq.spec, nodes(int(doc["m"])))[1])
    lyap = float(doc["lyapunov"])
    ok = log_fp.min() < lyap < log_fp.max()
    return bool(ok), f"{float(log_fp.min())!r} < {lyap!r} < {float(log_fp.max())!r}"


def check_twisted_norms(out: Path, config: dict):
    """Sup-norms of L_it^n 1 never grow, start at most 1 + max(L_phi 1 - 1), and decay."""
    from solenoidlab.thermo import transfer_matrix

    eq = _equilibrium(out)
    norms = _column(out, "twisted.csv", 1)
    err = float(np.max(transfer_matrix(eq.spec, eq.phi) @ np.ones(eq.m)) - 1.0)
    slope = _slope(np.arange(1, norms.size + 1), np.log(norms))
    stated = float(_json(out, "twisted.json")["fitted_log_slope"])
    ok = norms.size == config["twist_steps"]
    ok &= bool(np.all(np.diff(norms) <= 0.0))
    # |L_it 1| <= L_phi 1 term by term; 1e-13 covers the complex rounding
    ok &= norms[0] <= 1.0 + err + 1e-13
    ok &= slope < 0.0 and _rel(stated, slope) <= 1e-9
    return bool(ok), f"first={float(norms[0])!r} L_phi1-1={err:.2e} slope={slope:.4g}"


CHECKS = {
    "decay": [check_pressure_ln2, check_decay_moduli_exact, check_decay_exponent, check_mu_nu_marginal],
    "coding": [
        check_pressure_ln2,
        check_cylinders_tile,
        check_anchors_forward,
        check_deviations,
        check_nonconc_bruteforce,
        check_expsum_direct,
        check_moduli_at_most_1,
    ],
    "spectral": [check_srb_pressure_dimension, check_density_positive_mean_1, check_lyapunov_range, check_twisted_norms],
}


def run_checks(workload: str, out: Path, config: dict) -> list[tuple[str, bool, str]]:
    """Every check of a workload; an exception counts as a failed check."""
    results = []
    for check in CHECKS[workload]:
        name = check.__name__.removeprefix("check_")
        try:
            ok, detail = check(out, config)
            results.append((name, bool(ok), detail))
        except Exception as exc:  # a malformed artifact fails its check
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every CSV the run emitted, for comparing numbers across commits."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
