"""CLI configuration, artifact emission, and manifest reproducibility."""

import ast
import json
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
    for name in ("preimage_tree", "transfer_matrix"):
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
_TEXT = st.text(max_size=8) | st.sampled_from([", ", "a, b", "1, 2", "line\nbreak", "é, ü, ∞"])
_SCALARS = _NUMBERS | st.booleans() | st.none() | _TEXT
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(_NUMBERS, min_size=1),
        st.lists(_NUMBERS, min_size=1).map(tuple),
        st.lists(st.floats() | st.integers(-(2**53), 2**53), min_size=1, max_size=8).map(np.array),
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
def test_encoder_matches_indented_json_dumps(doc):
    assert "".join(_encode(doc)) + "\n" == _indented(doc)


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
