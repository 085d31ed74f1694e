"""`python -m solenoidlab <experiment> ...`: the same command line as `solenoidlab`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
