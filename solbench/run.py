"""solenoidlab benchmark: time the CLI experiments a user runs, one workload per run.

    python3 solbench/run.py --workload decay|coding|spectral --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh interpreter
(`child.py`) that imports the package from `src/` and runs the workload's
commands through `solenoidlab.cli.run`, so no in-process cache survives
between repetitions.  Repetitions continue until `--seconds` have passed,
and at least MIN_REPS run; the reported figures are medians over them, so
one burst of host steal time cannot drag a run.  With `--trace 1` one more
repetition runs with the span tracer installed and the per-layer figures
are reported instead.  The outputs of the last untraced repetition are
then checked (`checks.py`).  Informational lines go first; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".solbench_out"
MIN_REPS = 3
SETUP_SPAWNS = 5  # import-only interpreters timed for setup_s, besides the repetitions
BUDGET_S = 150.0  # no repetition beyond MIN_REPS starts if it could end past this
DEADLINE_S = 170.0  # a child still running this long after the start is killed


def _steal_s() -> float | None:
    """Host-wide steal time so far (all CPUs), from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _spawn(job: dict, timeout: float) -> dict | None:
    """Run child.py on a job; None if it failed or overran its timeout."""
    job_path = Path(job["result"]).with_suffix(".job.json")
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    steal0 = _steal_s()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(job_path)],
        env=env, cwd=ROOT, stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"repetition killed after {timeout:.0f} s", file=sys.stderr)
        return None
    steal1 = _steal_s()
    if code != 0:
        return None
    result = json.loads(Path(job["result"]).read_text())
    result["setup_s"] = result["ready"] - spawned
    result["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
    return result


def _metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "solenoidlab" / "cli.py").is_file():
        print(f"no solenoidlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from solenoidlab import cli

    specs = _metric_specs()
    commands = workloads.WORKLOADS[args.workload]["commands"]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    overrides = workloads.make_config(args.workload, args.seed)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(overrides, indent=2))
    config = cli.resolve_config(config_path=str(config_path))

    def job(mode: str, tag: str) -> dict:
        return {"mode": mode, "commands": commands, "config": str(config_path),
                "out": str(out / tag), "result": str(out / f"{tag}.result.json")}

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    # one untimed import first, so every timed start finds compiled bytecode
    if _spawn(job("import", "warm"), remaining()) is None:
        print("the package does not import", file=sys.stderr)
        return 1
    setups = []
    for k in range(SETUP_SPAWNS):
        res = _spawn(job("import", f"setup{k}"), remaining())
        if res is not None:
            setups.append(res["setup_s"])

    reps: list[dict] = []
    attempted = failed = 0
    loop_start = time.monotonic()
    last_rep_s = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - loop_start < args.seconds:
        if len(reps) >= MIN_REPS and (time.monotonic() - started) + last_rep_s * (1 + args.trace) > BUDGET_S:
            break
        tag = f"rep{len(reps)}"
        t0 = time.monotonic()
        res = _spawn(job("run", tag), remaining())
        last_rep_s = time.monotonic() - t0
        attempted += len(commands)
        if res is None:
            failed += len(commands)
            break
        failed += len(res["failed"])
        res["out"] = out / tag
        if reps:
            shutil.rmtree(reps[-1]["out"], ignore_errors=True)
        reps.append(res)
        steal = "n/a" if res["steal_s"] is None else f"{res['steal_s']:.2f}"
        print(f"{tag}: setup_s={res['setup_s']:.4f} wall_s={res['wall_s']:.4f} "
              f"cpu_s={res['cpu_s']:.4f} peak_rss_mb={res['peak_rss_mb']:.1f} "
              f"host_steal_s={steal} commands={ {c: round(s, 3) for c, s in res['command_s'].items()} }")
    if not reps:
        print("no repetition completed", file=sys.stderr)
        return 1
    setups += [r["setup_s"] for r in reps]
    wall = statistics.median(r["wall_s"] for r in reps)
    cpu = statistics.median(r["cpu_s"] for r in reps)
    print(f"reps={len(reps)} setup_samples={len(setups)} median wall_s={wall:.4f} "
          f"median cpu_s={cpu:.4f} total host_steal_s="
          f"{sum(r['steal_s'] or 0.0 for r in reps):.2f}")

    if args.trace:
        res = _spawn(job("trace", "trace"), remaining())
        attempted += len(commands)
        if res is None:
            print("traced repetition failed", file=sys.stderr)
            return 1
        failed += len(res["failed"])
        shutil.rmtree(out / "trace", ignore_errors=True)
        trace = res["trace"]
        print(f"trace: wall_s={res['wall_s']:.4f} overhead_s={res['wall_s'] - wall:.4f} "
              f"span_coverage={trace['root_s'] / res['wall_s']:.4f}")
        trace["process.cpu_s"] = cpu
        metrics = {name: {"value": trace.get(name, 0), "unit": unit}
                   for name, unit in specs["per_layer"].items()}
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in specs["end_to_end"].items()}

    checked = reps[-1]["out"]
    results = checks.run_checks(args.workload, checked, config)
    for name, ok, detail in results:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} {detail}")
    for name, digest in checks.csv_digests(checked).items():
        print(f"sha256 {name} {digest}")

    print(json.dumps({"correct": all(ok for _, ok, _ in results), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
