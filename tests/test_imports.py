"""Cold start: the package loads submodules on first use, and each CLI command
loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import kemeny_stat
from kemeny_stat import rank_core

_SRC = os.path.dirname(os.path.dirname(kemeny_stat.__file__))

# runs cli.main(argv) and prints, after the command's own output, the
# package modules, numpy and OpenSSL's _hashlib that the run loaded
_PROBE = """
import json, sys
from kemeny_stat.cli import main
code = main(sys.argv[1:])
loaded = sorted(
    name.removeprefix("kemeny_stat.") for name in sys.modules
    if name.startswith("kemeny_stat.") or name in ("numpy", "_hashlib")
)
print(json.dumps([code, loaded]))
"""


def _fresh(code: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_BASE = ["cli", "errors"]
_COUNT = ["dataio", "multivar", "numpy", "rank_core"]
_NULL = ["null_models", "numpy", "rank_core", "reference"]


def test_each_command_loads_only_its_modules(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n2,1\n3,3\n4,3\n5,4\n")
    csv = str(path)
    expected = {
        ("--version",): _BASE,
        ("--help",): _BASE,
        ("enumerate", "5"): _BASE + ["enum_oracle"],
        ("correlate", csv): _BASE + _COUNT,
        ("matrix", csv): _BASE + _COUNT,
        ("test", csv): _BASE + _COUNT + _NULL,
        ("nulls", "15"): _BASE + _NULL,
        ("consistency-report", "--oracle-n", "3"): _BASE + _NULL + ["consistency", "enum_oracle"],
        ("simulate", "--experiment", "table1", "--seed", "1", "--reps", "2", "--n", "4"):
            _BASE + _NULL + ["_hashlib", "simulate"],
    }
    for argv, modules in expected.items():
        code, loaded = json.loads(_fresh(_PROBE, *argv).splitlines()[-1])
        assert code == 0, argv
        assert loaded == sorted(set(modules)), argv


def test_import_loads_no_submodule():
    code = "import sys, kemeny_stat; print(sorted(m for m in sys.modules if 'kemeny_stat.' in m))"
    assert _fresh(code).strip() == "[]"


def test_every_public_name_is_its_home_modules_object():
    for name in kemeny_stat.__all__[1:]:  # after __version__, a plain global
        home = importlib.import_module(f"kemeny_stat.{kemeny_stat._HOME[name]}")
        assert getattr(kemeny_stat, name) is getattr(home, name), name
    assert kemeny_stat.__all__[0] == "__version__"
    assert set(kemeny_stat.__all__) <= set(dir(kemeny_stat))


def test_submodules_resolve_and_unknown_names_raise():
    assert kemeny_stat.null_models is importlib.import_module("kemeny_stat.null_models")
    assert kemeny_stat.enum_oracle is importlib.import_module("kemeny_stat.enum_oracle")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kemeny_stat.no_such_name  # noqa: B018
    assert not hasattr(kemeny_stat, "ESTIMATORS")  # rank_core's, not exported
    with pytest.raises(ImportError):
        from kemeny_stat import no_such_name  # noqa: F401


def test_rebound_then_restored_attribute_is_seen_through_the_package(monkeypatch):
    original = rank_core.kemeny_tau

    def wrapper(x, y):
        return original(x, y)

    monkeypatch.setattr(rank_core, "kemeny_tau", wrapper)
    assert kemeny_stat.kemeny_tau is wrapper
    monkeypatch.undo()
    assert kemeny_stat.kemeny_tau is original
    assert "kemeny_tau" not in vars(kemeny_stat)
