"""One repetition of a workload, in a fresh interpreter.

    python3 solbench/child.py <job.json>

The job names the commands, the config file, the output directory, the
result file and the mode: `import` stops after the package import (a
set-up sample), `run` times the commands, `trace` times them with the
span tracer installed.  The result file gets the monotonic clock reading
when the import finished (the parent subtracts its spawn time to get the
set-up time), the command wall and CPU time, peak RSS and failures.
"""

import json
import resource
import sys
import time
import traceback


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    from solenoidlab import cli

    ready = time.monotonic()
    result = {"ready": ready, "failed": [], "command_s": {}}
    if job["mode"] != "import":
        tracer = None
        if job["mode"] == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu()
        start = time.monotonic()
        config = cli.resolve_config(config_path=job["config"])
        for command in job["commands"]:
            t0 = time.monotonic()
            try:
                cli.run(command, config, job["out"])
            except Exception:  # a failed command is counted, the rest still run
                traceback.print_exc()
                result["failed"].append(command)
            result["command_s"][command] = time.monotonic() - t0
        result["wall_s"] = time.monotonic() - start
        result["cpu_s"] = _cpu() - cpu0
        if tracer is not None:
            result["trace"] = tracer.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
