"""Experiment orchestration and report emission.

One subcommand per experiment; every knob has a default so bare runs work.
Each run writes its artifacts (CSV series, JSON scalars) plus a manifest
capturing the fully resolved configuration; re-running from the manifest
reproduces the CSV bodies byte for byte.  Several run calls in one
interpreter share the last equilibrium solved (see _run_equilibrium), with
the same artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .circle_map import _MAX_ORDER, _MAX_PERIOD, BUMP_KINDS, coefficient_table, lyapunov_target
from .circle_map import verify_lattice
from .fourier import _MAX_FREQUENCY, _MIN_FREQUENCIES, _MIN_SAMPLES, _workers
from .fourier import decay_exponent, dyadic_frequencies, mu_hat, nu_hat, nu_hat_limit
from .solenoid import periodic_orbit
from .symbolic import _MAX_LEVEL, cylinder_rows
from .thermo import (
    _MIN_GRID,
    EquilibriumData,
    GridFunction,
    _frozen,
    _grid_ok,
    gibbs_ratio_stats,
    large_deviation_profile,
    mme_potential,
    solve_equilibrium,
    srb_potential,
)
from .twisted import (
    _FOLD_LIMIT,
    _MAX_BLOCK,
    _MAX_STEPS,
    concentration_report,
    exp_sum,
    table_scale,
    twisted_norm_profile,
    zeta_table,
)

DEFAULTS = {
    "n_max": 5,
    "bump_kind": "exp",
    "potential": "mme",  # mme | srb | path to a JSON array file
    "grid_m": 1 << 14,
    "seed": 0,
    "lattice_k_max": 20,
    "orbit_periods": [1, 2, 3, 4, 5],
    "gibbs_levels": [8, 10, 12],
    # the zero potential's Birkhoff fluctuations sit at the 1e-5 scale; O(1)
    # potentials want epsilon around 0.25 instead
    "deviation_epsilon": 3e-5,
    "deviation_levels": [6, 7, 8, 9, 10, 11, 12, 13, 14],
    "twist_t": 100.0,
    "twist_steps": 80,
    "zeta_n": 12,
    "zeta_context": "0101010101010",
    "sigma_lo": 1e-4,
    "sigma_hi": 1e-1,
    "sigma_count": 10,
    "eps0": 0.26,
    "expsum_k": 2,
    "eta_count": 12,
    "freq_base": 100.0,
    "freq_count": 11,
    "mu_samples": 1_000_000,
    "mu_cross_t": [10.0, 100.0, 1000.0],
}


# Inclusive (low, high) bounds on each integer value and on each entry of an
# integer list.  A fitted slope needs two sigmas, etas or twist steps; every
# other limit is the one its library function enforces, read from that
# function's module.
_BOUNDS = {
    "seed": (0, math.inf),
    "n_max": (1, _MAX_ORDER),
    "lattice_k_max": (2, math.inf),
    "expsum_k": (1, math.inf),
    "mu_samples": (_MIN_SAMPLES, math.inf),
    "freq_count": (_MIN_FREQUENCIES, math.inf),
    "sigma_count": (2, math.inf),
    "eta_count": (2, math.inf),
    "zeta_n": (1, _MAX_BLOCK),
    "twist_steps": (2, _MAX_STEPS),
    "orbit_periods": (1, _MAX_PERIOD),
    "gibbs_levels": (1, _MAX_LEVEL),
    "deviation_levels": (1, _MAX_LEVEL),
}


# The smallest step in ln eta between expsum's etas (see _etas).
_MIN_LOG_STEP = 1e-10


class ConfigError(Exception):
    """Configuration failed validation."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def resolve_config(overrides: dict | None = None, config_path: str | None = None) -> dict:
    """Merge defaults, an optional config file (or manifest), and overrides.

    When neither the file nor an override gives zeta_context, it is the
    alternating 0101... word of length zeta_n + 1.
    """
    config = dict(DEFAULTS)
    given = {}
    if config_path:
        with open(config_path) as fh:
            given = json.load(fh)
        if isinstance(given, dict) and "config" in given and "experiment" in given:
            given = given["config"]  # accept an emitted manifest directly
        if not isinstance(given, dict):
            raise ConfigError(f"{config_path} must hold a JSON object of config keys")
        config.update(given)
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    config.update(flags)
    _check_keys(config)
    if "zeta_context" not in given and "zeta_context" not in flags:
        config["zeta_context"] = ("01" * (config["zeta_n"] + 1))[: config["zeta_n"] + 1]
    return config


def _type_ok(value, default) -> bool:
    """value has default's type: for a float, a finite double or an int that is one;
    no bool; lists entry-wise."""
    if isinstance(value, bool):
        return False
    if isinstance(default, list):
        return isinstance(value, list) and all(_type_ok(v, default[0]) for v in value)
    if isinstance(default, float):
        try:
            return isinstance(value, (int, float)) and math.isfinite(float(value))
        except OverflowError:  # an int beyond the largest double
            return False
    return isinstance(value, type(default))


def _check_keys(config: dict) -> None:
    """Every key of DEFAULTS is present, no other key is, and each value has its default's type."""
    if set(config) != set(DEFAULTS):
        raise ConfigError(f"unknown or missing config keys: {sorted(set(config) ^ set(DEFAULTS))}")
    for key, default in DEFAULTS.items():
        if not _type_ok(config[key], default):
            raise ConfigError(
                f"{key} = {config[key]!r} is not finite or lacks the type of {default!r}"
            )


def _validate(config: dict) -> np.ndarray | None:
    """Reject a config outside the range where the numbers mean anything.

    Returns the grid of a custom potential file, checked to hold grid_m
    finite numbers, or None for mme and srb.
    """
    _check_keys(config)
    m = config["grid_m"]
    if not _grid_ok(m):
        raise ConfigError(f"grid_m must be a power of two >= {_MIN_GRID}, got {m}")
    for key, (low, high) in _BOUNDS.items():
        value = config[key]
        if not all(low <= v <= high for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{key} = {value!r} leaves the range {low}..{high}")
    for key in ("deviation_epsilon", "eps0", "freq_base", "sigma_lo"):
        if config[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    _frequencies(config)  # raises when the largest frequency reaches nu_hat's limit
    if not all(abs(t) < _MAX_FREQUENCY for t in config["mu_cross_t"]):
        raise ConfigError(f"every |mu_cross_t| entry must lie below {_MAX_FREQUENCY:.4g}")
    if config["bump_kind"] not in BUMP_KINDS:
        raise ConfigError(f"bump_kind must be one of {BUMP_KINDS}, got {config['bump_kind']!r}")
    ctx = config["zeta_context"]
    if set(ctx) - {"0", "1"} or len(ctx) != config["zeta_n"] + 1:
        raise ConfigError("zeta_context must be a 0/1 string of length zeta_n + 1")
    # expsum folds k - 1 tables of N = 2^(zeta_n + 1) entries: N^(k-1) products at most
    bits = int(math.log2(_FOLD_LIMIT))
    if (config["zeta_n"] + 1) * (config["expsum_k"] - 1) > bits:
        raise ConfigError(
            f"N^(expsum_k - 1) = 2^((zeta_n + 1) * (expsum_k - 1)) must be at most the fold limit "
            f"{_FOLD_LIMIT:,}: zeta_n <= {bits // 2 - 1} at expsum_k = 3, <= {bits // 3 - 1} at 4"
        )
    _etas(config)  # raises when the largest eta overflows or the etas lie too close
    if not config["sigma_lo"] < config["sigma_hi"]:
        raise ConfigError("need sigma_lo < sigma_hi")
    levels = config["deviation_levels"]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("deviation_levels must be a non-empty increasing list")
    if not config["gibbs_levels"]:
        raise ConfigError("gibbs_levels must be non-empty")
    kind = config["potential"]
    if kind in ("mme", "srb"):
        return None
    if not Path(kind).is_file():
        raise ConfigError(f"potential must be 'mme', 'srb', or a JSON file; got {kind!r}")
    with open(kind) as fh:
        values = json.load(fh)
    if not _type_ok(values, [0.0]):
        raise ConfigError("custom potential must be a JSON list of finite numbers")
    if len(values) != m:
        raise ConfigError(f"custom potential has {len(values)} values, expected {m}")
    return _frozen(np.asarray(values, dtype=float))


def _etas(config: dict) -> np.ndarray:
    """expsum's eta_count etas, geometric from e^(eps0 zeta_n / 2) to e^(2 eps0 zeta_n)."""
    n, eps0 = config["zeta_n"], config["eps0"]
    with np.errstate(over="ignore"):
        top = np.exp(2.0 * eps0 * n)
    if not np.isfinite(top):
        raise ConfigError(f"the largest eta, e^(2 eps0 zeta_n) = e^{2 * eps0 * n:g}, overflows")
    etas = np.geomspace(np.exp(eps0 * n / 2.0), top, config["eta_count"])
    # ln eta steps by 1.5 eps0 zeta_n / (eta_count - 1); rounding moves each ln
    # eta by at most ~1.1e-16, a millionth of the smallest step allowed, so a
    # fitted slope reads the window and not the rounding
    step = 1.5 * eps0 * n / (config["eta_count"] - 1)
    if not (step >= _MIN_LOG_STEP and (np.diff(etas) > 0).all()):
        raise ConfigError(
            f"eps0 = {eps0!r} steps ln eta by {step:.3g}; the fitted slope needs at least {_MIN_LOG_STEP:g}"
        )
    return etas


def _frequencies(config: dict) -> np.ndarray:
    """fourier's schedule freq_base * 2^j, j < freq_count, each below nu_hat's limit.

    ldexp gives the largest entry exactly, or raises, before the schedule is built.
    """
    base, count = config["freq_base"], config["freq_count"]
    try:
        top = math.ldexp(base, count - 1)
    except OverflowError:
        top = math.inf
    if not top < _MAX_FREQUENCY:
        raise ConfigError(
            f"the largest frequency, freq_base * 2^(freq_count - 1) = {top:g}, "
            f"must lie below {_MAX_FREQUENCY:.4g}"
        )
    return dyadic_frequencies(base, count)


def _build_potential(config: dict, spec, custom: np.ndarray | None) -> GridFunction:
    if custom is not None:
        return GridFunction(custom)
    if config["potential"] == "mme":
        return mme_potential(config["grid_m"])
    return srb_potential(spec, config["grid_m"])


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _encode(obj, depth: int = 0):
    """Yield json.dumps(obj, indent=2, sort_keys=True) in pieces, byte for byte, for str keys.

    A non-empty 1-D array (an equilibrium grid) is formatted one distinct
    bit pattern at a time: its distinct entries go to the C encoder as one
    list, the text is split at ", ", which no number's encoding contains,
    and each entry's text is gathered back in place.  The grids repeat
    heavily, since f' = 2 exactly off the perturbation's bumps: srb's psi
    on 2^17 nodes holds about a thousand distinct doubles, mme's one.
    Keying on bits, not values, keeps 0.0 and -0.0 apart.  The indented
    json.dumps would fall back to the pure-Python encoder, several times
    slower on the grids.  Written as they come, the pieces hold one grid
    in memory at a time, not the whole document.
    """
    pad = "\n" + "  " * (depth + 1)
    is_list = isinstance(obj, (list, tuple)) and bool(obj)
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size:
        uniq, inv = np.unique(obj.view(f"u{obj.itemsize}"), return_inverse=True)
        texts = np.array(json.dumps(uniq.view(obj.dtype).tolist())[1:-1].split(", "), dtype=object)
        yield "[" + pad + ("," + pad).join(texts[inv].tolist()) + pad[:-2] + "]"
    elif isinstance(obj, dict) and obj:
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON artifact keys must be strings")
        opener = "{"
        for key in sorted(obj):
            yield opener + pad + json.dumps(key) + ": "
            yield from _encode(obj[key], depth + 1)
            opener = ","
        yield pad[:-2] + "}"
    elif is_list:
        opener = "["
        for v in obj:
            yield opener + pad
            yield from _encode(v, depth + 1)
            opener = ","
        yield pad[:-2] + "]"
    else:  # a scalar or an empty container
        yield json.dumps(obj)


def _write_json(path: Path, doc: dict) -> None:
    with path.open("w") as fh:
        fh.writelines(_encode(doc))
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_construct(config: dict, out: Path, _eq: None) -> None:
    spec = coefficient_table(config["n_max"], config["bump_kind"])
    report = verify_lattice(config["lattice_k_max"])
    doc = json.loads(spec.to_json())
    doc["lyapunov_targets"] = {
        str(n): _fmt(lyapunov_target(spec, n)) for n in range(2, spec.n_max + 1)
    }
    _write_json(out / "coefficients.json", doc)
    _write_json(out / "lattice.json", asdict(report))
    for N in config["orbit_periods"]:
        orbit = periodic_orbit(spec, N)
        rows = [(*p, d) for p, d in zip(orbit.points, orbit.derivs)]
        _write_csv(out / f"orbit_{N}.csv", ["theta", "x", "y", "unstable_deriv"], rows)


class _Solved(NamedTuple):
    """The last equilibrium this process solved, and the _file_id of the
    equilibrium.json last written from it, taken just after the write."""

    key: tuple
    eq: EquilibriumData
    file_id: tuple[int, int, int, int]


_solved: _Solved | None = None


def _file_id(path) -> tuple[int, int, int, int]:
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _unchanged(path, file_id: tuple[int, int, int, int]) -> bool:
    """path is still the file file_id recorded: same device, inode, size and mtime."""
    try:
        return _file_id(path) == file_id
    except OSError:  # gone, or no longer reachable
        return False


def _run_equilibrium(config: dict, out: Path, custom: np.ndarray | None) -> EquilibriumData:
    """Solve the equilibrium and write equilibrium.json, or reuse the last solve.

    The process keeps its last equilibrium, keyed by the coefficient table,
    the potential string, grid_m and the custom grid's bytes.  A run with the
    same key takes that state instead of solving again, and its
    equilibrium.json is the same bytes a fresh solve would write: the file
    last written is left alone when it is the target and unchanged, and
    re-encoded in every other case (another directory, or a file that
    changed or is gone).  "Unchanged" is read from the file's device,
    inode, size and mtime, as make reads a target: an edit that keeps the
    size within the file system's timestamp tick goes unseen.  A failed
    solve or write leaves the record as it was.
    """
    global _solved
    spec = coefficient_table(config["n_max"], config["bump_kind"])
    grid = None if custom is None else custom.tobytes()
    key = (spec, config["potential"], config["grid_m"], grid)
    target = out / "equilibrium.json"
    last = _solved if _solved is not None and _solved.key == key else None
    if last is None:
        eq = solve_equilibrium(spec, _build_potential(config, spec, custom))
    elif _unchanged(target, last.file_id):
        return last.eq
    else:
        eq = last.eq
    _write_json(
        target,
        {
            "spec": json.loads(eq.spec.to_json()),
            "potential": config["potential"],
            "m": eq.m,
            "pressure": _fmt(eq.pressure),
            "lyapunov": _fmt(eq.lyapunov),
            "dimension": _fmt(eq.dimension),
            "psi": eq.potential_psi.values,
            "eigenfunction": eq.eigenfunction.values,
            "density": eq.density.values,
            "phi": eq.phi.values,
        },
    )
    _solved = _Solved(key, eq, _file_id(target))
    return eq


def _run_gibbs(config: dict, out: Path, eq: EquilibriumData) -> None:
    rows = gibbs_ratio_stats(eq, config["gibbs_levels"])
    _write_csv(out / "gibbs.csv", ["n", "ratio_min", "ratio_max"], rows)
    level = min(min(config["gibbs_levels"]), 10)
    _write_csv(
        out / "cylinders.csv",
        ["word", "lo", "hi", "anchor", "deriv_at_anchor"],
        cylinder_rows(eq.spec, level),
    )


def _run_deviations(config: dict, out: Path, eq: EquilibriumData) -> None:
    prof = large_deviation_profile(eq, config["deviation_epsilon"], config["deviation_levels"])
    _write_csv(out / "deviations.csv", ["n", "fraction"], prof.entries)
    _write_json(
        out / "deviations.json",
        {"epsilon": _fmt(prof.epsilon), "fitted_rate": _fmt(prof.fitted_rate)},
    )


def _run_twisted(config: dict, out: Path, eq: EquilibriumData) -> None:
    norms = twisted_norm_profile(eq, config["twist_t"], config["twist_steps"])
    rows = [(n + 1, float(v)) for n, v in enumerate(norms)]
    _write_csv(out / "twisted.csv", ["n", "sup_norm"], rows)
    slope = float(np.polyfit(np.arange(1, norms.size + 1), np.log(norms), 1)[0])
    _write_json(
        out / "twisted.json",
        {"t": _fmt(config["twist_t"]), "fitted_log_slope": _fmt(slope)},
    )


def _zeta(config: dict, eq: EquilibriumData):
    context = tuple(int(c) for c in config["zeta_context"])
    return zeta_table(eq, context, config["zeta_n"])


def _scale_fields(table) -> dict:
    scale = table_scale(table)
    return {
        "spread": _fmt(scale.spread),
        "distinct": scale.distinct,
        "largest_atom": _fmt(scale.largest_atom),
        "tie_floor": _fmt(scale.tie_floor),
    }


def _run_nonconc(config: dict, out: Path, eq: EquilibriumData) -> None:
    table = _zeta(config, eq)
    sigmas = np.geomspace(config["sigma_lo"], config["sigma_hi"], config["sigma_count"])
    report = concentration_report(table, sigmas)
    rows = [(float(s), c, c / report.N**2) for s, c in zip(report.sigma_list, report.counts)]
    _write_csv(out / "nonconc.csv", ["sigma", "count", "count_over_N2"], rows)
    _write_json(
        out / "nonconc.json",
        {
            "N": report.N,
            "gamma_emp": _fmt(report.gamma_emp),
            "zeta_n": config["zeta_n"],
            **_scale_fields(table),
        },
    )


def _run_expsum(config: dict, out: Path, eq: EquilibriumData) -> None:
    table = _zeta(config, eq)
    etas = _etas(config)
    report = exp_sum(etas, [table] * config["expsum_k"])
    _write_csv(out / "expsum.csv", ["eta", "exp_sum_modulus"], zip(etas.tolist(), report.moduli))
    slope = float(np.polyfit(np.log(etas), np.log(report.moduli), 1)[0])
    _write_json(
        out / "expsum.json",
        {
            "eps0": _fmt(config["eps0"]),
            "k": config["expsum_k"],
            "fitted_slope": _fmt(slope),
            "terms": report.terms,
            "max_cross_bound": _fmt(report.max_cross_bound),
            **_scale_fields(table),
        },
    )


def _run_fourier(config: dict, out: Path, eq: EquilibriumData) -> None:
    freqs = _frequencies(config)
    series = [(float(t), abs(nu_hat(eq, t))) for t in freqs]
    fit = decay_exponent(series)
    _write_csv(
        out / "decay.csv",
        ["frequency", "modulus", "stderr"],
        [(f, m, 0.0) for f, m in series],
    )
    cross_t = [float(t) for t in config["mu_cross_t"]]
    xis = np.zeros((len(cross_t), 3))
    xis[:, 0] = cross_t
    estimates = mu_hat(eq, xis, samples=config["mu_samples"], seed=config["seed"])
    cross = []
    for t, (value, err) in zip(cross_t, estimates):
        ref = nu_hat(eq, t)
        cross.append(
            {
                "t": _fmt(t),
                "mu_hat_mod": _fmt(abs(value)),
                "nu_hat_mod": _fmt(abs(ref)),
                "abs_diff": _fmt(abs(value - ref)),
                "stderr": _fmt(err),
            }
        )
    limit = nu_hat_limit(eq.m)
    _write_json(
        out / "summary.json",
        {
            "exponent": _fmt(fit.exponent),
            "stderr": _fmt(fit.stderr),
            "n_points": fit.n_used,
            "marginal_cross_check": cross,
            "nu_hat_grid_limit": _fmt(limit),
            "frequencies_past_grid_limit": int((np.abs(freqs) > limit).sum()),
        },
    )


# ---------------------------------------------------------------------------
# the experiment table
# ---------------------------------------------------------------------------

# A flag row: (flag, config key, help); the flag's type is its default's.
Flag = tuple[str, str, str]

# Every runner builds the map from these; _flags adds _EQUILIBRIUM_FLAGS to each
# experiment that solves the equilibrium.
SHARED_FLAGS: tuple[Flag, ...] = (
    ("--n-max", "n_max", "coefficient truncation order"),
    ("--bump-kind", "bump_kind", f"bump profile of the perturbation: {' or '.join(BUMP_KINDS)}"),
)

_EQUILIBRIUM_FLAGS: tuple[Flag, ...] = (
    ("--grid", "grid_m", f"grid size (power of two >= {_MIN_GRID})"),
    ("--potential", "potential", "mme, srb, or path to a JSON grid"),
)

_ZETA_FLAGS: tuple[Flag, ...] = (
    ("--zeta-n", "zeta_n", "phase-table block length"),
    ("--context", "zeta_context", "context word as a 0/1 string"),
)


class Experiment(NamedTuple):
    """A subcommand: runner(config, out, eq), whether eq is solved first (which also
    brings _EQUILIBRIUM_FLAGS), and its own flags."""

    runner: Callable | None  # None: solving the equilibrium is the whole experiment
    needs_equilibrium: bool
    flags: tuple[Flag, ...] = ()


EXPERIMENT_TABLE: dict[str, Experiment] = {  # in dependency order, the order of `all`
    "construct": Experiment(_run_construct, False, (
        ("--k-max", "lattice_k_max", "lattice verification order"),
    )),
    "equilibrium": Experiment(None, True),
    "gibbs": Experiment(_run_gibbs, True),
    "deviations": Experiment(_run_deviations, True, (
        ("--epsilon", "deviation_epsilon", "deviation window"),
    )),
    "twisted": Experiment(_run_twisted, True, (
        ("--t", "twist_t", "twist frequency"),
        ("--steps", "twist_steps", "twisted iteration count"),
    )),
    "nonconc": Experiment(_run_nonconc, True, _ZETA_FLAGS),
    "expsum": Experiment(_run_expsum, True, (
        *_ZETA_FLAGS,
        ("--eps0", "eps0", "eta-window exponent"),
    )),
    "fourier": Experiment(_run_fourier, True, (
        ("--samples", "mu_samples", "Monte-Carlo sample count"),
        ("--seed", "seed", "Monte-Carlo seed"),
    )),
}


def _chain(experiment: str) -> tuple[str, ...]:
    if experiment != "all" and experiment not in EXPERIMENT_TABLE:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return tuple(EXPERIMENT_TABLE) if experiment == "all" else (experiment,)


def _flags(experiment: str) -> tuple[Flag, ...]:
    """The shared flags plus every flag of the experiments the command runs,
    the equilibrium's among them where one of those experiments solves it."""
    own = (
        row
        for entry in map(EXPERIMENT_TABLE.get, _chain(experiment))
        for row in (_EQUILIBRIUM_FLAGS if entry.needs_equilibrium else ()) + entry.flags
    )
    return SHARED_FLAGS + tuple(dict.fromkeys(own))


def run(experiment: str, config: dict, out_dir: str | os.PathLike) -> None:
    """Execute one experiment (or 'all') and write artifacts plus a manifest.

    The manifest's times come from the monotonic performance counter:
    wall_clock_seconds spans the whole chain, and stage_seconds gives the
    equilibrium (solve and write, or reuse) and each experiment the chain runs.
    environment names the interpreter, library versions and host, and the
    worker count mu_hat's pool reads.
    """
    chain = _chain(experiment)
    custom = _validate(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    eq: EquilibriumData | None = None
    stage_seconds = {}
    for name in chain:
        entry = EXPERIMENT_TABLE[name]
        if entry.needs_equilibrium and eq is None:
            clock = time.perf_counter()
            eq = _run_equilibrium(config, out, custom)
            stage_seconds["equilibrium"] = time.perf_counter() - clock
        if entry.runner is not None:
            clock = time.perf_counter()
            entry.runner(config, out, eq)
            stage_seconds[name] = time.perf_counter() - clock

    _write_json(
        out / "manifest.json",
        {
            "experiment": experiment,
            "config": config,
            "version": __version__,
            "wall_clock_seconds": time.perf_counter() - started,
            "stage_seconds": stage_seconds,
            "environment": _environment(),
        },
    )


def _environment() -> dict:
    """The Python, NumPy and SciPy versions, the platform, the CPU count and
    the cores mu_hat's pool may use."""
    import scipy  # loaded already by thermo's scipy.sparse; no import-time cost

    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "workers": _workers(),
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solenoidlab",
        description="Construct the nonlinear solenoid and run its verification experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in (*EXPERIMENT_TABLE, "all"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config or a previously emitted manifest")
        p.add_argument("--out", default="out", help="output directory")
        for flag, key, text in _flags(name):
            p.add_argument(flag, dest=key, type=type(DEFAULTS[key]), help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: getattr(args, key) for _, key, _ in _flags(args.experiment)}
    try:
        config = resolve_config(overrides, args.config)
        run(args.experiment, config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # propagate operation failures as a diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
