"""Tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q solbench/selftest.py

Each output check must pass on genuine artifacts and fail on an artifact
corrupted in the one place it guards.  The artifacts come from the same
commands as the workloads, at reduced sizes so the file runs in about a
minute.  The file is not named test_*.py, so the repository's own test run
does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from solenoidlab import cli  # noqa: E402

SMALL = {
    "decay": {"mu_samples": 20_000},
    "coding": {"zeta_n": 8},
    "spectral": {"grid_m": 1 << 14},
}


def _config(workload: str) -> dict:
    return cli.resolve_config({**workloads.make_config(workload, 3), **SMALL[workload]})


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    dirs = {}
    for name, spec in workloads.WORKLOADS.items():
        out = tmp_path_factory.mktemp(name)
        for command in spec["commands"]:
            cli.run(command, _config(name), out)
        dirs[name] = out
    return dirs


def _set_csv(out: Path, name: str, row: int, col: int, edit) -> None:
    path = out / name
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = edit(cells[col])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _set_json(out: Path, name: str, edit) -> None:
    path = out / name
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _swap_norms(out):
    path = out / "twisted.csv"
    lines = path.read_text().splitlines()
    lines[11], lines[12] = lines[12], lines[11]
    path.write_text("\n".join(lines) + "\n")


def _inflate_diff(doc):
    entry = doc["marginal_cross_check"][0]
    entry["abs_diff"] = repr(10.0 * float(entry["stderr"]))


def _bump_count(out):
    _set_csv(out, "nonconc.csv", 0, 1, lambda c: str(int(c) + 1))
    n2 = float(json.loads((out / "nonconc.json").read_text())["N"]) ** 2
    count = int((out / "nonconc.csv").read_text().splitlines()[1].split(",")[1])
    _set_csv(out, "nonconc.csv", 0, 2, lambda c: repr(count / n2))


def _shift_hi(out):
    _set_csv(out, "cylinders.csv", 3, 2, lambda c: repr(math.nextafter(float(c), 1.0)))


def _negate_density(doc):
    doc["density"][5] = -doc["density"][5]


CORRUPTIONS = [
    ("decay", "pressure_ln2",
     lambda o: _set_json(o, "equilibrium.json", lambda d: d.update(pressure=repr(math.log(2) + 1e-9)))),
    ("decay", "decay_moduli_exact", lambda o: _set_csv(o, "decay.csv", 7, 1, _scale(1 + 1e-6))),
    ("decay", "decay_exponent",
     lambda o: _set_json(o, "summary.json", lambda d: d.update(exponent="-0.04"))),
    ("decay", "mu_nu_marginal", lambda o: _set_json(o, "summary.json", _inflate_diff)),
    ("coding", "pressure_ln2",
     lambda o: _set_json(o, "equilibrium.json", lambda d: d.update(pressure=repr(0.69)))),
    ("coding", "cylinders_tile", _shift_hi),
    ("coding", "anchors_forward", lambda o: _set_csv(o, "cylinders.csv", 17, 4, _scale(1 + 1e-9))),
    ("coding", "deviations", lambda o: _set_csv(o, "deviations.csv", 2, 1, lambda c: "1.5")),
    ("coding", "nonconc_bruteforce", _bump_count),
    ("coding", "expsum_direct", lambda o: _set_csv(o, "expsum.csv", 11, 1, _scale(1 - 1e-6))),
    ("coding", "moduli_at_most_1", lambda o: _set_csv(o, "expsum.csv", 0, 1, lambda c: "1.0000001")),
    ("spectral", "srb_pressure_dimension",
     lambda o: _set_json(o, "equilibrium.json", lambda d: d.update(dimension="1.000001"))),
    ("spectral", "density_positive_mean_1", lambda o: _set_json(o, "equilibrium.json", _negate_density)),
    ("spectral", "lyapunov_range",
     lambda o: _set_json(o, "equilibrium.json", lambda d: d.update(lyapunov="0.7"))),
    ("spectral", "twisted_norms", _swap_norms),
]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_pass_on_genuine_artifacts(artifacts, workload):
    results = checks.run_checks(workload, artifacts[workload], _config(workload))
    assert [(name, ok) for name, ok, _ in results] == [(name, True) for name, _, _ in results], results


def test_every_check_has_a_corruption():
    covered = {(w, name) for w, name, _ in CORRUPTIONS}
    for workload, funcs in checks.CHECKS.items():
        for fn in funcs:
            assert (workload, fn.__name__.removeprefix("check_")) in covered


@pytest.mark.parametrize("workload,check,corrupt", CORRUPTIONS, ids=[f"{w}-{c}" for w, c, _ in CORRUPTIONS])
def test_check_fails_on_corrupted_artifact(artifacts, tmp_path, workload, check, corrupt):
    out = tmp_path / workload
    shutil.copytree(artifacts[workload], out)
    corrupt(out)
    results = {name: ok for name, ok, _ in checks.run_checks(workload, out, _config(workload))}
    assert results[check] is False


def test_tracer_reports_every_per_layer_metric(tmp_path):
    """A traced child run over every layer yields each per-layer figure, non-zero."""
    config = cli.resolve_config({"mu_samples": 2000, "zeta_n": 6, "grid_m": 1 << 12,
                                 "deviation_levels": [6, 7, 8]})
    (tmp_path / "config.json").write_text(json.dumps(config))
    job = {"mode": "trace", "config": str(tmp_path / "config.json"), "out": str(tmp_path / "out"),
           "result": str(tmp_path / "result.json"),
           "commands": ["gibbs", "deviations", "twisted", "nonconc", "expsum", "fourier"]}
    (tmp_path / "job.json").write_text(json.dumps(job))
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(HERE / "child.py"), str(tmp_path / "job.json")],
                   env=env, check=True, timeout=300)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["failed"] == []
    trace = result["trace"]
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [n for n in names if n != "process.cpu_s" and not trace.get(n)]
    assert missing == []
    # the root cli.run spans cover the timed commands
    assert trace["root_s"] <= result["wall_s"] and trace["root_s"] > 0.95 * result["wall_s"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and solbench/, the run exits non-zero."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "solbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "solbench/run.py", "--workload", "decay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
