"""Package-level contracts: version, exports, subpackage imports."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.lattice",
    "repro.lgca",
    "repro.engines",
    "repro.pebbling",
    "repro.util",
]


class TestPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        """Every name in __all__ actually exists — no stale exports."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_documented(self, name):
        """Every exported callable/class has a docstring."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if callable(obj):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"

    def test_cli_importable(self):
        from repro.cli import build_parser

        assert build_parser().prog == "repro"

    def test_runtime_imports_pull_in_numpy_only(self):
        """The CLI, the machine registry and the automaton import neither
        scipy nor networkx: the install needs numpy only."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        code = (
            "import sys, repro.cli, repro.machines, repro.lgca.automaton; "
            "print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_no_circular_imports(self):
        """core, engines, pebbling import cleanly in any order."""
        for order in (
            ["repro.pebbling", "repro.core", "repro.engines"],
            ["repro.engines", "repro.pebbling", "repro.core"],
        ):
            for name in order:
                importlib.reload(importlib.import_module(name))
