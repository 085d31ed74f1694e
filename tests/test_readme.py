"""README.md names only what the package has, and its library example runs."""

import importlib
import re
from pathlib import Path

import solenoidlab

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# `cli.py` and `twisted.csv` name files, not module members
_FILE_SUFFIXES = {"py", "csv", "json"}


def test_readme_module_references_resolve():
    modules = {path.stem for path in Path(solenoidlab.__file__).parent.glob("*.py")}
    refs = [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", README)
        if module in modules and name not in _FILE_SUFFIXES
    ]
    assert len(refs) >= 10  # the pattern still finds the README's references
    missing = [
        f"{module}.{name}"
        for module, name in refs
        if not hasattr(importlib.import_module(f"solenoidlab.{module}"), name)
    ]
    assert missing == []


def test_readme_library_usage_runs(capsys):
    section = README.split("## Library usage\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    exponent, stderr = map(float, capsys.readouterr().out.split())
    assert exponent < 0.0 and stderr > 0.0
