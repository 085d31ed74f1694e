"""CLI configuration, artifact emission, and manifest reproducibility."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import solenoidlab
from solenoidlab import cli, fourier, solenoid, thermo, twisted
from solenoidlab.circle_map import coefficient_table
from solenoidlab.cli import (
    EXPERIMENT_TABLE,
    SHARED_FLAGS,
    ConfigError,
    _encode,
    _flags,
    _parser,
    main,
    resolve_config,
    run,
)


def _fast_config(**extra):
    config = resolve_config()
    config.update(
        {
            "grid_m": 1 << 10,
            "zeta_n": 6,
            "zeta_context": "0101010",
            "mu_samples": 2_000,
            "deviation_levels": [4, 6, 8],
            "gibbs_levels": [4, 6],
            "twist_steps": 20,
            "freq_base": 10.0,
            "freq_count": 9,
        }
    )
    config.update(extra)
    return config


def test_defaults_validate():
    config = resolve_config()
    assert config["n_max"] == 5
    assert config["grid_m"] == 1 << 14
    cli._validate(resolve_config({"expsum_k": 3, "zeta_n": 11}))


def test_zeta_context_follows_zeta_n_only_when_not_given(tmp_path):
    assert resolve_config()["zeta_context"] == "0101010101010"
    for flags in ({"zeta_n": 8}, {"zeta_n": 8, "zeta_context": None}):
        assert resolve_config(flags)["zeta_context"] == "010101010"
    kept = resolve_config({"zeta_n": 8, "zeta_context": "0101010101010"})
    assert kept["zeta_context"] == "0101010101010"
    out = tmp_path / "out"
    argv = ["nonconc", "--zeta-n", "8", "--context", "0101010101010", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": 2048}))
    with pytest.raises(ConfigError):
        resolve_config(config_path=str(bad))


def test_bad_grid_rejected():
    with pytest.raises(ConfigError):
        run("equilibrium", _fast_config(grid_m=3), "unused")


def test_bad_grid_exit_code(tmp_path):
    code = main(["equilibrium", "--grid", "3", "--out", str(tmp_path)])
    assert code == 2


def test_construct_artifacts(tmp_path):
    code = main(["construct", "--out", str(tmp_path), "--k-max", "6"])
    assert code == 0
    coeff = json.loads((tmp_path / "coefficients.json").read_text())
    assert coeff["n_max"] == 5
    assert coeff["betas"][0]["num"] == -3666
    lattice = json.loads((tmp_path / "lattice.json").read_text())
    assert lattice["disjoint_ok"] and lattice["exclusions_ok"]
    body = (tmp_path / "orbit_3.csv").read_text().splitlines()
    assert body[0] == "theta,x,y,unstable_deriv"
    assert len(body) == 4
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == "construct"
    assert manifest["config"]["lattice_k_max"] == 6


def test_equilibrium_artifacts(tmp_path):
    run("equilibrium", _fast_config(), tmp_path)
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["m"] == 1 << 10
    assert float(doc["pressure"]) == pytest.approx(np.log(2.0), abs=1e-6)
    assert len(doc["density"]) == 1 << 10


def test_fourier_artifacts(tmp_path):
    run("fourier", _fast_config(), tmp_path)
    body = (tmp_path / "decay.csv").read_text().splitlines()
    assert body[0] == "frequency,modulus,stderr"
    assert len(body) == 10
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert float(summary["exponent"]) < 0.0
    assert summary["n_points"] >= 4
    assert len(summary["marginal_cross_check"]) == 3


def test_fourier_summary_bytes_do_not_follow_the_worker_count(tmp_path, monkeypatch):
    # one chunk holding every draw is mu_hat without chunks: under one worker
    # and two, the chunked passes must write the same bytes
    config = _fast_config(mu_samples=2 * fourier._CHUNK + 777)
    written = []
    for workers, chunk in [(1, fourier._CHUNK), (2, fourier._CHUNK), (1, 1 << 30)]:
        monkeypatch.setattr(fourier, "_workers", lambda: workers)
        monkeypatch.setattr(fourier, "_CHUNK", chunk)
        run("fourier", config, tmp_path / f"{workers}-{chunk}")
        written.append((tmp_path / f"{workers}-{chunk}" / "summary.json").read_bytes())
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize("grid_m, past", [(1 << 14, 3), (1 << 17, 0)])
def test_summary_counts_the_frequencies_past_the_grid_limit(tmp_path, grid_m, past):
    # nu_hat trusts t up to 2 pi m / 8, 12,868 at the default m = 2^14, which
    # the default schedule 100 * 2^j passes at 25,600, 51,200 and 102,400
    config = resolve_config()
    config.update(grid_m=grid_m, mu_samples=2_000)
    run("fourier", config, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["frequencies_past_grid_limit"] == past
    assert float(summary["nu_hat_grid_limit"]) == fourier.nu_hat_limit(grid_m)
    assert fourier.nu_hat_limit(1 << 14) == pytest.approx(12_867.96, abs=0.01)


def test_removed_depth_knob_exits_2(tmp_path):
    # mu_hat's fiberless rows read no push, so the CLI has no depth to set
    with pytest.raises(SystemExit) as exc:
        main(["fourier", "--depth", "20", "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    manifest = tmp_path / "manifest.json"
    stale = {**resolve_config(), "mu_depth": 20}
    manifest.write_text(json.dumps({"experiment": "fourier", "config": stale}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mu_depth": 20}))
    for path in (manifest, config):
        with pytest.raises(ConfigError, match="mu_depth"):
            resolve_config(config_path=str(path))
        out = tmp_path / path.stem
        assert main(["fourier", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


def test_nonconc_and_expsum_artifacts(tmp_path):
    config = _fast_config()
    run("nonconc", config, tmp_path)
    run("expsum", config, tmp_path)
    rows = (tmp_path / "nonconc.csv").read_text().splitlines()
    assert rows[0] == "sigma,count,count_over_N2"
    fracs = [float(line.split(",")[2]) for line in rows[1:]]
    doc = json.loads((tmp_path / "nonconc.json").read_text())
    assert doc["N"] == 1 << 7
    # exact ties pair at every sigma, so no count falls below the tie floor
    assert min(fracs) >= float(doc["tie_floor"]) >= float(doc["largest_atom"]) ** 2
    assert 1 <= doc["distinct"] <= doc["N"] and float(doc["spread"]) > 0.0
    rows = (tmp_path / "expsum.csv").read_text().splitlines()
    assert rows[0] == "eta,exp_sum_modulus"
    mods = [float(line.split(",")[1]) for line in rows[1:]]
    assert all(0.0 <= v <= 1.0 for v in mods)
    scale = ("spread", "distinct", "largest_atom", "tie_floor")
    expsum = json.loads((tmp_path / "expsum.json").read_text())
    assert {key: expsum[key] for key in scale} == {key: doc[key] for key in scale}
    # every eta sums at least one term per band, and each band has B <= 1
    assert expsum["terms"] >= len(mods) and 0.0 < float(expsum["max_cross_bound"]) <= 1.0


def test_expsum_folds_once_per_run(tmp_path, monkeypatch):
    folds = []
    real = twisted._product_distribution

    def counting(tables):
        folds.append(len(tables))
        return real(tables)

    monkeypatch.setattr(twisted, "_product_distribution", counting)
    run("expsum", _fast_config(expsum_k=3), tmp_path)
    assert folds == [2]  # one fold of k - 1 tables serves all 12 etas


def test_expsum_splits_bands_through_the_cli(tmp_path, monkeypatch):
    # at eps0 = 1.5, J_n reaches eta = 6.6e7 on the 128-entry table, far past
    # one band; float64 all-pairs sums at phases of 1e7 rad are no reference
    calls = []
    real = cli.exp_sum

    def recording(etas, tables):
        calls.append((etas, tables))
        return real(etas, tables)

    monkeypatch.setattr(cli, "exp_sum", recording)
    run("expsum", _fast_config(eps0=1.5), tmp_path)
    ((etas, tables),) = calls
    vals, cnt = np.unique(tables[-1].values, return_counts=True)
    rows = [line.split(",") for line in (tmp_path / "expsum.csv").read_text().splitlines()[1:]]
    assert [float(eta) for eta, _ in rows] == etas.tolist()
    with mpmath.workdps(40):
        for eta, modulus in rows:
            ref = mpmath.fsum(
                int(ca * cb) * mpmath.expj(mpmath.mpf(eta) * mpmath.mpf(a) * mpmath.mpf(b))
                for a, ca in zip(vals.tolist(), cnt) for b, cb in zip(vals.tolist(), cnt)
            )
            assert abs(float(modulus) - float(abs(ref) / tables[0].size**2)) <= 1e-13, eta
    assert len(list(twisted._bands(etas[-1], vals, np.ptp(vals) / 2))) > 1
    assert float(json.loads((tmp_path / "expsum.json").read_text())["max_cross_bound"]) <= 1.0


def test_all_runs_in_order(tmp_path):
    run("all", _fast_config(mu_samples=1_000), tmp_path)
    for name in (
        "coefficients.json",
        "equilibrium.json",
        "gibbs.csv",
        "cylinders.csv",
        "deviations.csv",
        "twisted.csv",
        "nonconc.csv",
        "expsum.csv",
        "decay.csv",
        "manifest.json",
    ):
        assert (tmp_path / name).exists(), name
    cyl = (tmp_path / "cylinders.csv").read_text().splitlines()
    assert cyl[0] == "word,lo,hi,anchor,deriv_at_anchor"
    assert len(cyl) == (1 << 4) + 1


@pytest.mark.parametrize("experiment", ["construct", "equilibrium", "gibbs", "all"])
def test_manifest_times_each_stage(tmp_path, experiment):
    run(experiment, _fast_config(mu_samples=1_000), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    stages = manifest["stage_seconds"]
    chain = cli._chain(experiment)
    solves = any(EXPERIMENT_TABLE[name].needs_equilibrium for name in chain)
    assert set(stages) == set(chain) | ({"equilibrium"} if solves else set())
    assert all(math.isfinite(s) and s >= 0 for s in stages.values())
    # disjoint spans of one monotonic clock, inside the whole run's span
    assert sum(stages.values()) <= manifest["wall_clock_seconds"]
    # the same stages, each the process's peak RSS so far as it ended
    peaks = manifest["stage_peak_rss_mb"]
    assert set(peaks) == set(stages)
    assert all(isinstance(v, float) and v > 0.0 for v in peaks.values())
    ran = []  # the stages in the order the chain ran them; the file sorts its keys
    for name in chain:
        if EXPERIMENT_TABLE[name].needs_equilibrium and "equilibrium" not in ran:
            ran.append("equilibrium")
        if name in stages and name not in ran:
            ran.append(name)
    assert [peaks[name] for name in ran] == sorted(peaks.values())


def test_stage_times_cover_the_run_at_defaults(tmp_path):
    # only the chain's bookkeeping runs outside a stage's clock, so a stage
    # whose clock is dropped shows as a shortfall
    run("all", resolve_config(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sum(manifest["stage_seconds"].values()) >= 0.95 * manifest["wall_clock_seconds"]


def test_manifest_records_the_environment(tmp_path):
    import platform

    import scipy

    run("construct", _fast_config(), tmp_path)
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "workers": fourier._workers(),
    }
    assert 1 <= env["workers"] <= os.cpu_count()


def test_manifest_rerun_reproduces_csv_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_fast_config()))
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["all", "--out", str(first), "--config", str(config)]) == 0
    manifest = first / "manifest.json"
    assert main(["all", "--out", str(second), "--config", str(manifest)]) == 0
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in second.iterdir() if p.name != "manifest.json")
    assert {"decay.csv", "summary.json", "equilibrium.json", "orbit_5.csv"} <= set(names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


# The process keeps its last solved equilibrium (cli._solved); the shared
# fixture empties it before each test.

_CHAIN = ("gibbs", "deviations", "nonconc", "expsum", "twisted", "fourier")


def _artifacts(root: Path) -> dict:
    """Every file under root but the manifests (they hold a wall time), by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _grid_file(path: Path, amplitude: float) -> str:
    m = 1 << 10
    path.write_text(json.dumps((amplitude * np.sin(2 * np.pi * np.arange(m) / m)).tolist()))
    return str(path)


def _counting_solves(monkeypatch) -> list:
    solves = []
    real = cli.solve_equilibrium

    def counting(spec, psi):
        solves.append(spec)
        return real(spec, psi)

    monkeypatch.setattr(cli, "solve_equilibrium", counting)
    return solves


@pytest.mark.parametrize("per_command", [False, True], ids=["one-dir", "dir-per-command"])
def test_reused_equilibrium_gives_the_artifacts_of_fresh_runs(tmp_path, per_command):
    # one custom path holds two grids in turn: a key without the grid's bytes
    # would give the second grid the first one's state
    grid = tmp_path / "psi.json"
    potentials = {
        "mme": lambda: "mme",
        "srb": lambda: "srb",
        "custom-a": lambda: _grid_file(grid, 0.3),
        "custom-b": lambda: _grid_file(grid, 0.2),
    }
    for side in ("fresh", "reused"):
        cli._solved = None
        for label, potential in potentials.items():
            config = _fast_config(potential=potential())
            for command in _CHAIN:
                if side == "fresh":
                    cli._solved = None
                out = tmp_path / side / label
                run(command, config, out / command if per_command else out)
    fresh, reused = _artifacts(tmp_path / "fresh"), _artifacts(tmp_path / "reused")
    # per potential: 12 artifacts and one equilibrium.json per directory
    assert len(fresh) == 4 * (12 + (len(_CHAIN) if per_command else 1))
    assert sorted(fresh) == sorted(reused)
    assert [name for name in fresh if fresh[name] != reused[name]] == []


def test_a_changed_key_solves_again(tmp_path, monkeypatch):
    solves = _counting_solves(monkeypatch)
    out = tmp_path / "out"

    def solved(config) -> int:
        before = len(solves)
        run("equilibrium", config, out)
        return len(solves) - before

    base = _fast_config()
    assert (solved(base), solved(base)) == (1, 0)
    for change in ({"n_max": 4}, {"bump_kind": "smoothstep"}, {"grid_m": 1 << 11}, {"potential": "srb"}):
        assert solved({**base, **change}) == 1, change
        assert solved(base) == 1, change
    custom = _fast_config(potential=_grid_file(tmp_path / "psi.json", 0.3))
    assert (solved(custom), solved(custom)) == (1, 0)
    _grid_file(tmp_path / "psi.json", 0.2)  # edited at the same path
    assert solved(custom) == 1


def _damage(path: Path, how: str) -> None:
    if how == "delete":
        path.unlink()
        return
    st = path.stat()
    body = path.read_bytes()
    if how == "edit":  # same size, same inode
        path.write_bytes(body.replace(b'"m": 1024', b'"m": 2048'))
    else:
        path.write_bytes(body[: len(body) // 2])
    # on a file system with coarse timestamps a write within one tick keeps
    # the old mtime, and a stat shows nothing else of a same-size edit
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))


@pytest.mark.parametrize("how", ["edit", "truncate", "delete"])
def test_a_changed_equilibrium_file_is_written_again(tmp_path, monkeypatch, how):
    solves = _counting_solves(monkeypatch)
    config = _fast_config()
    first, second = tmp_path / "first", tmp_path / "second"
    run("equilibrium", config, first)
    path = first / "equilibrium.json"
    want = path.read_bytes()
    run("equilibrium", config, first)  # unchanged: left as it is
    assert path.read_bytes() == want
    _damage(path, how)
    run("equilibrium", config, first)
    assert path.read_bytes() == want
    _damage(path, how)
    run("equilibrium", config, second)  # another directory: encoded from the state
    assert (second / "equilibrium.json").read_bytes() == want
    assert len(solves) == 1


@pytest.mark.parametrize("per_command", [False, True], ids=["one-dir", "dir-per-command"])
def test_coding_commands_solve_and_encode_the_equilibrium_once(tmp_path, monkeypatch, per_command):
    solves = _counting_solves(monkeypatch)
    encoded = []
    real_write = cli._write_json

    def recording(path, doc):
        encoded.append(path.name)
        real_write(path, doc)

    monkeypatch.setattr(cli, "_write_json", recording)
    file_ids = []
    for command in ("gibbs", "deviations", "nonconc", "expsum"):
        out = tmp_path / command if per_command else tmp_path
        run(command, _fast_config(), out)
        file_ids.append(cli._file_id(out / "equilibrium.json"))
    assert len(solves) == 1
    # one file, encoded once and then left alone, or one encode per directory
    assert encoded.count("equilibrium.json") == (4 if per_command else 1)
    assert len(set(file_ids)) == (4 if per_command else 1)


def test_nonconc_and_expsum_build_the_zeta_table_once(tmp_path):
    for command in ("nonconc", "expsum"):
        run(command, _fast_config(), tmp_path)
    assert twisted._zeta_values.cache_info()[:2] == (1, 1)  # hits, misses


def test_custom_potential_file(tmp_path):
    m = 1 << 10
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps([0.0] * m))
    run("equilibrium", _fast_config(potential=str(pot)), tmp_path)
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert float(doc["pressure"]) == pytest.approx(np.log(2.0), abs=1e-6)


def test_custom_potential_wrong_length(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps([0.0] * 100))
    with pytest.raises(ConfigError):
        run("equilibrium", _fast_config(potential=str(pot)), tmp_path)


def test_non_finite_custom_potential_rejected_before_artifacts(tmp_path):
    m = 1 << 10
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps([0.0] * (m - 1) + [float("nan")]))
    out = tmp_path / "out"
    for experiment in ("equilibrium", "all"):
        code = main([experiment, "--out", str(out), "--grid", str(m), "--potential", str(pot)])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("case", ["directory", "string entry", "booleans"])
def test_custom_potential_outside_the_type_rule_rejected_before_artifacts(tmp_path, case):
    # the entries obey the config type rule: finite numbers, no bool, no nesting
    if case == "directory":
        pot = tmp_path / "pot"
        pot.mkdir()
    else:
        pot = tmp_path / "pot.json"
        pot.write_text(json.dumps(["a", 1] if case == "string entry" else [True] * 1024))
    out = tmp_path / "out"
    argv = ["equilibrium", "--out", str(out), "--grid", "1024", "--potential", str(pot)]
    assert main(argv) == 2
    assert not out.exists()


def test_custom_potential_file_read_once(tmp_path, monkeypatch):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps([0.0] * 1024))
    loads = []
    real_load = json.load

    def counting_load(fh, **kwargs):
        loads.append(fh.name)
        return real_load(fh, **kwargs)

    monkeypatch.setattr(json, "load", counting_load)
    argv = ["equilibrium", "--grid", "1024", "--potential", str(pot), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert loads == [str(pot)]


def test_bad_bump_kind_flag_rejected_before_artifacts(tmp_path):
    out = tmp_path / "out"
    assert main(["construct", "--bump-kind", "foo", "--out", str(out)]) == 2
    assert not out.exists()


def test_operation_error_exit_code(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text("{not valid json")
    code = main(
        ["equilibrium", "--out", str(tmp_path), "--grid", "1024", "--potential", str(pot)]
    )
    assert code == 1


@pytest.mark.parametrize(
    "experiment, bad",
    [
        ("gibbs", {"gibbs_levels": []}),
        ("construct", {"orbit_periods": [1, 0]}),
        ("fourier", {"freq_count": 7}),
        ("fourier", {"freq_base": 0.0}),
        ("nonconc", {"sigma_count": 1}),
        ("expsum", {"eta_count": 1}),
        ("deviations", {"deviation_levels": []}),
        ("fourier", {"seed": "x"}),
        ("fourier", {"mu_samples": 2000.5}),
        ("gibbs", {"gibbs_levels": [8.5]}),
        ("construct", {"n_max": True}),
        ("twisted", {"twist_t": "100"}),
        ("nonconc", {"zeta_n": "6"}),
        ("construct", {"orbit_periods": 3}),
        ("deviations", {"deviation_epsilon": float("nan")}),
        ("fourier", {"freq_base": float("inf")}),
        ("twisted", {"twist_t": float("nan")}),
        ("fourier", {"mu_cross_t": [10.0, float("nan")]}),
        ("construct", {"bump_kind": "foo"}),
        ("deviations", {"deviation_levels": [0, 6]}),
        ("fourier", {"seed": -1}),
        ("deviations", {"deviation_levels": [6, 17]}),
        ("nonconc", {"zeta_n": 8, "zeta_context": "0101010101010"}),
        ("expsum", {"expsum_k": 3}),
        ("expsum", {"expsum_k": 3, "zeta_n": 12}),
        ("expsum", {"expsum_k": 4, "zeta_n": 8}),
        ("construct", [1, 2]),
        ("construct", "x"),
        ("construct", {"experiment": "construct", "config": [1, 2]}),
        ("twisted", {"twist_t": 10**400}),
        ("fourier", {"mu_cross_t": [10.0, 10**400]}),
        ("expsum", {"eps0": 29.6}),
        ("fourier", {"grid_m": 1024, "mu_samples": 1000, "mu_cross_t": [10.0, 1e200]}),
        ("fourier", {"grid_m": 1024, "mu_samples": 1000, "freq_count": 1030}),
        ("construct", {"n_max": 19}),
        ("twisted", {"twist_steps": 1}),
        ("expsum", {"eps0": 1e-18}),
        ("expsum", {"eps0": 1e-16}),
    ],
)
def test_meaningless_config_rejected_before_artifacts(tmp_path, experiment, bad):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main([experiment, "--out", str(out), "--config", str(config)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_largest_finite_eta_window_runs(tmp_path):
    # at zeta_n = 12 the largest eta e^(2 eps0 zeta_n) is finite up to eps0 ~ 29.574;
    # eps0 = 29.6 is rejected above
    out = tmp_path / "out"
    assert main(["expsum", "--eps0", "29.57", "--grid", "1024", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "expsum.csv").read_text().split()[1:]]
    assert len(rows) == 12 and np.isfinite(np.array(rows, dtype=float)).all()


def test_largest_frequency_below_the_limit_runs(tmp_path):
    # the schedule's top, 1.3e151 * 2^10 = 1.33e154, lies just below fourier._MAX_FREQUENCY
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_m": 1024, "mu_samples": 1000, "freq_base": 1.3e151}))
    out = tmp_path / "out"
    assert main(["fourier", "--out", str(out), "--config", str(config)]) == 0
    rows = [line.split(",") for line in (out / "decay.csv").read_text().split()[1:]]
    assert float(rows[-1][0]) == 1.3e151 * 2.0**10
    assert np.isfinite(np.array(rows, dtype=float)).all()


@pytest.fixture(scope="module")
def small_eq():
    return thermo.solve_equilibrium(coefficient_table(5), thermo.mme_potential(1 << 10))


def _context(n):
    return ("01" * (n + 1))[: n + 1]


# Each limit the CLI reads from a library module, the library call that
# enforces it (its argument check only: these calls do no work when the check
# fails), and the boundary value followed by the values one step past it.
_LIMITS = {
    "grid_m": (lambda eq, m: thermo.GridFunction(np.zeros(m)), 1024, [512, 1536]),
    "mu_samples": (lambda eq, s: fourier.mu_hat(eq, np.zeros((0, 3)), s), 1000, [999]),
    "freq_count": (
        lambda eq, k: fourier.decay_exponent([(f, f**-0.5) for f in 10.0 * 2.0 ** np.arange(k)]),
        8,
        [7],
    ),
    "zeta_n": (lambda eq, n: twisted.zeta_table(eq, [int(c) for c in _context(n)], n), 14, [15]),
    "twist_steps": (lambda eq, n: twisted.twisted_norm_profile(eq, 100.0, n), 200, [201]),
    "orbit_periods": (lambda eq, n: solenoid.periodic_orbit(eq.spec, n), 52, [53, 1024]),
    "n_max": (lambda eq, n: coefficient_table(n), 18, [19]),
}


@pytest.mark.parametrize("key", sorted(_LIMITS))
def test_cli_limits_match_the_library(small_eq, key, monkeypatch):
    call, boundary, past = _LIMITS[key]

    def config(value):
        extra = {"zeta_context": _context(value)} if key == "zeta_n" else {}
        if isinstance(cli.DEFAULTS[key], list):
            value = [value]
        return _fast_config(**{key: value}, **extra)

    cli._validate(config(boundary))
    call(small_eq, boundary)
    # past the limit, nothing may run beyond the argument check
    for name in ("push_forward", "sample"):
        monkeypatch.setattr(fourier, name, None)
    for name in ("_zero_tree", "transfer_matrix"):
        monkeypatch.setattr(twisted, name, None)
    for value in past:
        with pytest.raises(ConfigError, match=key):
            cli._validate(config(value))
        with pytest.raises(ValueError):
            call(small_eq, value)


# ---------------------------------------------------------------------------
# the JSON artifact encoder (hypothesis, derandomized so every run draws the same cases)
# ---------------------------------------------------------------------------

def _indented(doc) -> str:
    # an array is written as its list
    return json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324]),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
)
# arrays drawn from a small pool repeat entries, as the equilibrium grids do;
# 0.0 and -0.0 are equal values with distinct encodings
_POOL = [0.0, -0.0, 1.5, float("nan"), 5e-324, 1e16, float(2**53), 3, -7, 2**53]
_TEXT = st.text(max_size=8) | st.sampled_from([", ", "a, b", "1, 2", "line\nbreak", "é, ü, ∞"])
_SCALARS = _NUMBERS | st.booleans() | st.none() | _TEXT
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(_NUMBERS, min_size=1),
        st.lists(_NUMBERS, min_size=1).map(tuple),
        st.lists(st.floats() | st.integers(-(2**53), 2**53), min_size=1, max_size=8).map(np.array),
        st.lists(st.sampled_from(_POOL), min_size=1, max_size=12).map(np.array),
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_TEXT, inner),
    ),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(doc=st.dictionaries(_TEXT, _DOCS, max_size=4))
@example(doc={"grid": [0.5, float("nan"), 2**64], "mixed": ["a, b", 1.0, [], {}, [-0.0]]})
@example(doc={"grid": np.array([0.5, float("nan"), -0.0]), "ints": np.arange(3)})
@example(doc={"zeros": np.array([0.0, -0.0, 0.0, 1.5, -0.0])})
@example(doc={"signs": np.array([0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0])})
@example(doc={"tail": np.array([1.5, 2.5, 2.5, 3.5, 3.5, 3.5])})
@example(doc={"one": np.array([-0.0]), "int": np.array([7])})
@example(doc={"flat": np.full(9, -np.log(2.0)), "flat_zero": np.zeros(4)})
@example(doc={"nans": np.array([np.nan, np.nan, 1.0, np.nan, np.nan, np.nan, -np.nan])})
def test_encoder_matches_indented_json_dumps(doc):
    assert "".join(_encode(doc)) + "\n" == _indented(doc)


def test_encoder_formats_each_distinct_bit_pattern_once(monkeypatch):
    spec = coefficient_table(5, "exp")
    psi = thermo.solve_equilibrium(spec, thermo.srb_potential(spec, 1 << 12)).potential_psi.values
    pool = np.random.default_rng(0).choice([0.0, -0.0, 1.5, float("nan"), 1e16], size=1000)
    doc = {"pool": pool, "psi": psi}
    want = _indented(doc)
    lists, sorted_args = [], []
    real_dumps, real_unique = cli.json.dumps, np.unique

    def spying(obj, *args, **kwargs):
        if isinstance(obj, list):
            lists.append(obj)
        return real_dumps(obj, *args, **kwargs)

    def spying_unique(ar, *args, **kwargs):
        sorted_args.append(np.array(ar))
        return real_unique(ar, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spying)
    monkeypatch.setattr(np, "unique", spying_unique)
    assert "".join(_encode(doc)) + "\n" == want
    # off the bumps psi is -ln 2 bit for bit, so a handful of doubles in a
    # few long runs fill the grid, and only the runs' heads are sorted
    assert len(real_unique(psi)) < psi.size // 10
    assert len(lists) == len(sorted_args) == 2
    for grid, formatted, heads in zip((pool, psi), lists, sorted_args):
        bits = np.array(formatted, dtype=float).view("u8")
        assert bits.size == real_unique(bits).size == real_unique(grid.view("u8")).size
        assert set(bits.tolist()) == set(grid.view("u8").tolist())
        grid_bits = grid.view("u8")
        assert np.array_equal(heads, grid_bits[np.append(True, grid_bits[1:] != grid_bits[:-1])])
    assert sorted_args[1].size < psi.size // 10


def test_encoder_writes_a_grid_in_blocks(monkeypatch):
    monkeypatch.setattr(cli, "_JOIN_BLOCK", 4)
    for size in (1, 3, 4, 5, 8, 9, 13):
        grid = np.repeat([0.5, -0.0, 0.0, 2.0], 4)[:size]
        assert "".join(_encode({"g": grid})) + "\n" == _indented({"g": grid})


def test_every_artifact_matches_indented_json_dumps(tmp_path, monkeypatch):
    written = {}
    real = cli._write_json

    def capture(path, doc):
        real(path, doc)
        written[path.name] = doc

    monkeypatch.setattr(cli, "_write_json", capture)
    run("all", _fast_config(mu_samples=1_000), tmp_path)
    assert {"coefficients.json", "equilibrium.json", "summary.json", "manifest.json"} <= set(written)
    # names only: a failing diff of two whole documents takes minutes to render
    mismatched = [n for n, doc in written.items() if (tmp_path / n).read_text() != _indented(doc)]
    assert mismatched == []


def test_encoder_rejects_non_str_keys():
    for doc in ({1: 2.0}, {"a": {None: [1.0]}}, {"a": [{2.5: "x"}]}):
        with pytest.raises(TypeError):
            "".join(_encode(doc))


def test_json_artifacts_written_only_by_write_json():
    # _write_json is the one place an artifact's JSON is written, so every
    # artifact goes through _encode and no second encoder can grow beside it.
    tree = ast.parse(Path(cli.__file__).read_text())
    owner = {}  # node -> innermost enclosing function (ast.walk goes outside in)
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            owner.update((node, func.name) for node in ast.walk(func))

    def called(node):
        callee = getattr(node, "func", None)
        return getattr(callee, "attr", getattr(callee, "id", None))

    def callers(names):
        return [owner.get(node) for node in ast.walk(tree) if called(node) in names]

    json_writes = [
        owner.get(node)
        for node in ast.walk(tree)
        if called(node) in ("write_text", "write_bytes", "write", "writelines")
        and any(called(sub) in ("dumps", "_encode") for sub in ast.walk(node))
    ]
    assert json_writes == ["_write_json"]
    assert set(callers({"dumps"})) == {"_encode"}
    assert set(callers({"_encode"})) == {"_encode", "_write_json"}


def test_python_m_runs_from_checkout(tmp_path):
    src = Path(solenoidlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    argv = [sys.executable, "-m", "solenoidlab", "construct", "--k-max", "4", "--out", str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "coefficients.json").exists()


def test_package_import_leaves_mpmath_unloaded():
    # the coefficient table computes in decimal; mpmath stays a test dependency
    src = Path(solenoidlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    code = "import sys, solenoidlab.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# every subcommand's flags and the config key each sets: a flag reaches only
# the subcommands whose runners read its key, 40 (flag, subcommand) pairs
_SHARED_FLAGS = {"--n-max": "n_max", "--bump-kind": "bump_kind"}
_EQ = {"--grid": "grid_m", "--potential": "potential"}
_ZETA_FLAGS = {"--zeta-n": "zeta_n", "--context": "zeta_context"}
_OWN_FLAGS = {
    "construct": {"--k-max": "lattice_k_max"},
    "equilibrium": _EQ,
    "gibbs": _EQ,
    "deviations": {**_EQ, "--epsilon": "deviation_epsilon"},
    "twisted": {**_EQ, "--t": "twist_t", "--steps": "twist_steps"},
    "nonconc": {**_EQ, **_ZETA_FLAGS},
    "expsum": {**_EQ, **_ZETA_FLAGS, "--eps0": "eps0"},
    "fourier": {**_EQ, "--samples": "mu_samples", "--seed": "seed"},
}
_OWN_FLAGS["all"] = {k: v for flags in _OWN_FLAGS.values() for k, v in flags.items()}
_FLAG_VALUE = {"--bump-kind": "exp", "--context": "0101", "--potential": "mme"}


@pytest.mark.parametrize("experiment", sorted(_OWN_FLAGS))
def test_subcommand_accepts_exactly_its_flags(experiment):
    parser = _parser()
    args = parser.parse_args([experiment, "--config", "c.json", "--out", "o"])
    assert (args.config, args.out) == ("c.json", "o")
    accepted = {**_SHARED_FLAGS, **_OWN_FLAGS[experiment]}
    for flag in sorted({**_SHARED_FLAGS, **_OWN_FLAGS["all"]}):
        argv = [experiment, flag, _FLAG_VALUE.get(flag, "1")]
        if flag in accepted:
            assert getattr(parser.parse_args(argv), accepted[flag]) is not None, argv
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)  # e.g. `gibbs --t 1`
            assert exc.value.code == 2, argv


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | own flags (config key) |\n| --- | --- |\n")[1]
    documented = {}
    for line in table.split("\n\n")[0].splitlines():
        name, flags = line.strip("|").split("|")
        documented[name.strip(" `")] = re.findall(r"`(--[\w-]+)` \(`(\w+)`\)", flags)
    assert documented == {
        name: [row[:2] for row in _flags(name) if row not in SHARED_FLAGS]
        for name in EXPERIMENT_TABLE
    }
