"""The example scripts that the README advertises run to completion."""

import importlib.util
import subprocess
import sys
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


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="needs one cProfile per thread")
def test_profile_workload_runs():
    # A child process, because the script puts bench/ on its import path.
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "profile_workload.py"), "steady", "--seed", "3", "--mails", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "3 mails" in done.stdout and "CPU ms per mail" in done.stdout
    assert "was called by" in done.stdout
    assert "thread main-loop: " in done.stdout  # the engine loop's CPU line
    *_, counts, calls, quotes, records, stored, polls, turns = done.stdout.splitlines()
    assert counts.startswith("exchange copies per mail: 2.000 (6 Exchange.copy calls)")
    assert "aggregate offers per mail: " in counts
    assert calls.startswith("function calls per mail: ")
    assert "isinstance calls per mail: " in calls
    assert quotes.startswith("sort-key quotes per mail: ") and "terms.quote calls)" in quotes
    assert records == "event records per mail: 14.000 (42 records)"  # one per hop
    assert stored.startswith("stored mails per mail: ")
    assert "inbox entries per mail: " in stored
    assert polls.startswith("mail polls per mail: ") and "MailStore.poll calls)" in polls
    assert "loop turns per mail: " in turns
