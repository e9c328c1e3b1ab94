"""Import path (no command loads scipy) and module exports."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys
    import infoclone.cli as cli

    def scipy_modules():
        return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

    commands = [
        ["transfer", "--copies", "3", "--format", "json"],
        ["clone", "--alpha", "1,0.5", "--copies", "4"],
        ["table", "--format", "csv"],
        ["pdf", "--scheme", "gauss", "--sources", "1", "--copies", "2", "--grid", "50"],
        ["mc-info", "--sources", "1", "--copies", "2", "--trials", "3000", "--seed", "5"],
        ["mc-gauss", "--sources", "2", "--copies", "2", "--trials", "3000", "--seed", "6"],
        ["fock-verify", "--copies", "2", "--alpha", "0.6,0", "--truncation", "16"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 3), (argv, code)
    assert not scipy_modules(), scipy_modules()
    print("ok")
    """
)


def test_no_command_loads_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", GUARD_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


BARE_IMPORT = textwrap.dedent(
    """
    import sys
    import infoclone

    public = sorted(name for name in vars(infoclone) if not name.startswith("_"))
    loaded = sorted(name for name in sys.modules if name.startswith("infoclone."))
    print(public, loaded, isinstance(infoclone.__version__, str))
    """
)


def test_package_binds_only_its_version():
    # each public name has one import path, its module's; importing the
    # package loads none of them
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", BARE_IMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] [] True\n"


MODULES = ("phase_space", "measurement", "gaussian_cloner", "fock_oracle")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_exists(name):
    module = importlib.import_module(f"infoclone.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
