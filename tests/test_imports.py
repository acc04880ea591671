"""Import graph and process exit: a short CLI process pays only for what it calls.

`axibeam` imports `errors`, `ultraspherical`, `designs` and `metrics` eagerly
and resolves the public names of `quadrature` and `sampling` on first access.
A short CLI process costs mostly its imports, so the child processes below
run a command as `python -m axibeam` does (`runpy`) and list `sys.modules`
at its exit.  Each check runs in a fresh child: this process has already
imported whatever the other test files use.

The process entry point `cli.run` freezes the heap on its way out, so the
interpreter's exit skips a collection of the whole heap; `cli.main`, which
callers run in their own process, leaves the collector alone.
"""

import importlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from axibeam import cli

LAZY = ("axibeam.quadrature", "axibeam.sampling")
WEIGHTS = object()  # stands for the path of a weights file written for the test


def _run(args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


# runs the CLI like `python -m axibeam`, then reports the number of frozen
# objects and lists every module it imported
RUN_CLI = """
import gc
import runpy
import sys

sys.argv[0] = "axibeam"
try:
    runpy.run_module("axibeam", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\\nfrozen: {gc.get_freeze_count()}\\n")
    sys.stderr.write("modules: " + " ".join(sorted(sys.modules)) + "\\n")
"""

# runs the CLI's `main` in the caller's process, as tests and the benchmark's
# traced run do
RUN_MAIN = """
import gc
import sys

from axibeam.cli import main

try:
    sys.exit(main(sys.argv[1:]))
finally:
    sys.stderr.write(f"\\nfrozen: {gc.get_freeze_count()}\\n")
"""


def _loaded(code, *args):
    """(exit code, modules imported) of a child running `code` with args."""
    proc = _run(["-c", code, *args])
    return proc.returncode, set(proc.stderr.rpartition("modules: ")[2].split())


def _frozen(code, *args):
    """(exit code, objects frozen at exit) of a child running `code` with args."""
    proc = _run(["-c", code, *args])
    return proc.returncode, int(proc.stderr.rpartition("frozen: ")[2].split()[0])


@pytest.mark.parametrize(
    "argv, code, loads, skips",
    [
        (["weights", "--design", "maxre", "--order", "3"], 0, (), LAZY + ("json",)),
        (["metrics", "--design", "supercard", "--orders", "1..4", "--format", "csv"], 0,
         (), LAZY + ("json",)),
        (["pattern", "--design", "cap", "--cap-x0", "0.5", "--order", "3", "--samples", "7"],
         0, (), LAZY + ("json",)),
        (["pattern", "--design", "basic", "--order", "2", "--format", "json"], 0,
         ("json",), LAZY),
        (["tdesign", "--circle", "5", "--t", "5"], 1,
         ("axibeam.sampling",), ("axibeam.quadrature", "json")),
        (["metrics", "--weights-file", WEIGHTS, "--dim", "2.5"], 0, (), LAZY + ("json",)),
    ],
    ids=["weights", "metrics", "pattern", "pattern-json", "tdesign", "metrics-file"],
)
def test_cli_command_loads_only_what_it_calls(argv, code, loads, skips, tmp_path):
    weights = tmp_path / "weights.csv"
    weights.write_text("n,a_n\n0,1\n1,0.5\n")
    argv = [str(weights) if arg is WEIGHTS else arg for arg in argv]
    got, modules = _loaded(RUN_CLI, *argv)
    assert got == code
    assert "axibeam.cli" in modules
    assert {m for m in loads if m not in modules} == set()
    assert {m for m in skips if m in modules} == set()


PACKAGE_CHECKS = """
import importlib
import sys

import axibeam as ab

assert not [m for m in ("axibeam.quadrature", "axibeam.sampling", "json") if m in sys.modules]
assert "axibeam.metrics" in sys.modules
assert not [n for n in ab.__all__ if n not in dir(ab)]
# the front-to-back Gram matrix is read from an eager module
ab.gram_front(4, ab.Dimension(3))
assert "axibeam.quadrature" not in sys.modules
# a module's names are bound when the module is imported, so a function
# patched in the module afterwards is not what the package holds
quadrature = importlib.import_module("axibeam.quadrature")
original = quadrature.integrate_axisym
quadrature.integrate_axisym = lambda *args, **kwargs: None
assert ab.integrate_axisym is original
quadrature.integrate_axisym = original
# every public name is its own module's object, however it was reached
assert ab.platonic is ab.sampling.platonic
for name in set(ab.__all__) - {"__version__"}:
    obj = getattr(ab, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
assert ab.quadrature is quadrature and ab.sampling is sys.modules["axibeam.sampling"]
# a lazy name that its module no longer exports is stale
assert not [(m, n) for m, names in ab._LAZY.items() for n in names
            if n not in sys.modules[f"axibeam.{m}"].__all__]
# each public name is declared once, in its own module's __all__
eager = [sys.modules[f"axibeam.{m}"].__all__
         for m in ("errors", "ultraspherical", "designs", "metrics")]
assert sum(map(len, eager)) == len(set().union(*eager))
assert set(ab.__all__) == {"__version__"}.union(*eager, *ab._LAZY.values())
namespace = {}
exec("from axibeam import *", namespace)
assert not [n for n in ab.__all__ if n not in namespace]
assert all(namespace[n] is getattr(ab, n) for n in ab.__all__)
try:
    ab.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("ab.no_such_name resolved")
print("ok")
"""


def test_package_namespace():
    proc = _run(["-c", PACKAGE_CHECKS])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


EXITS = [
    (["weights", "--design", "maxre", "--order", "3"], 0),
    (["tdesign", "--circle", "5", "--t", "5"], 1),
    (["weights", "--design", "basic", "--order", "129"], 2),
    (["weights", "--design", "no-such-design"], 2),
    (["--version"], 0),
]
EXIT_IDS = ["ok", "tdesign-fails", "invalid-order", "argparse-error", "version"]


@pytest.mark.parametrize("argv, code", EXITS, ids=EXIT_IDS)
def test_cli_process_exits_with_a_frozen_heap(argv, code):
    got, frozen = _frozen(RUN_CLI, *argv)
    assert got == code
    assert frozen > 0


@pytest.mark.parametrize("argv, code", EXITS, ids=EXIT_IDS)
def test_cli_main_leaves_the_collector_alone(argv, code):
    assert _frozen(RUN_MAIN, *argv) == (code, 0)


def test_script_target_is_the_process_entry_point(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["axibeam"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    # `python -m axibeam` calls the same function
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append(name) or 0)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("axibeam", run_name="__main__")
    assert exit_.value.code == 0 and calls == [name]


def test_cli_polyhedra_are_the_sampling_names():
    from axibeam import sampling

    assert cli._POLYHEDRA == sampling.PLATONIC_NAMES
