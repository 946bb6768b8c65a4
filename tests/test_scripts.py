"""The example scripts that the README advertises run to completion."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, expected",
    [("run_use_case", "forwarded mail:"), ("run_bridge_demo", "bob received:")],
)
def test_example_script_runs(name, expected, capsys):
    assert load_script(name).main() == 0
    assert expected in capsys.readouterr().out
