"""The benchmark's workloads: which CLI experiments run, with which config.

Each workload is a list of `solenoidlab` subcommands run one after another
in one fresh interpreter, every command through `solenoidlab.cli.run` with
a config file the benchmark writes.  The seed goes into the config's
Monte-Carlo `seed`; every other knob is fixed, so the same seed gives the
same inputs.
"""

from __future__ import annotations

WORKLOADS = {
    # `solenoidlab fourier` at defaults: m = 2^14 mme equilibrium, 11 dyadic
    # nu_hat frequencies, three mu_hat cross-checks at 10^6 samples, depth 20.
    "decay": {
        "commands": ["fourier"],
        "config": {},
    },
    # the symbolic machinery at defaults, each experiment its own command.
    "coding": {
        "commands": ["gibbs", "deviations", "nonconc", "expsum"],
        "config": {},
    },
    # `solenoidlab twisted --grid 131072 --potential srb --t 10000`.
    "spectral": {
        "commands": ["twisted"],
        "config": {"grid_m": 1 << 17, "potential": "srb", "twist_t": 10000.0},
    },
}


def make_config(workload: str, seed: int) -> dict:
    """Config overrides for one run of a workload (the CLI fills in the rest)."""
    return {**WORKLOADS[workload]["config"], "seed": int(seed)}
