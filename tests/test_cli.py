"""CLI configuration, artifact emission, and manifest reproducibility."""

import json

import numpy as np
import pytest

from solenoidlab.cli import ConfigError, _parser, main, resolve_config, run


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


def test_nonconc_and_expsum_artifacts(tmp_path):
    config = _fast_config()
    run("nonconc", config, tmp_path)
    run("expsum", config, tmp_path)
    rows = (tmp_path / "nonconc.csv").read_text().splitlines()
    assert rows[0] == "sigma,count,count_over_N2"
    doc = json.loads((tmp_path / "nonconc.json").read_text())
    assert doc["N"] == 1 << 7
    rows = (tmp_path / "expsum.csv").read_text().splitlines()
    assert rows[0] == "eta,exp_sum_modulus"
    mods = [float(line.split(",")[1]) for line in rows[1:]]
    assert all(0.0 <= v <= 1.0 for v in mods)


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
    ],
)
def test_meaningless_config_rejected_before_artifacts(tmp_path, experiment, bad):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main([experiment, "--out", str(out), "--config", str(config)]) == 2
    assert not out.exists() or not any(out.iterdir())


# every subcommand's flags and the config key each sets, as the parser had them
# before it was generated from the experiment table
_SHARED_FLAGS = {
    "--seed": "seed",
    "--grid": "grid_m",
    "--n-max": "n_max",
    "--potential": "potential",
    "--bump-kind": "bump_kind",
}
_ZETA_FLAGS = {"--zeta-n": "zeta_n", "--context": "zeta_context", "--eps0": "eps0"}
_OWN_FLAGS = {
    "construct": {"--k-max": "lattice_k_max"},
    "equilibrium": {},
    "gibbs": {},
    "deviations": {"--epsilon": "deviation_epsilon"},
    "twisted": {"--t": "twist_t", "--steps": "twist_steps"},
    "nonconc": _ZETA_FLAGS,
    "expsum": _ZETA_FLAGS,
    "fourier": {"--samples": "mu_samples", "--depth": "mu_depth"},
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
