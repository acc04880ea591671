"""Import graph and process life: a short CLI process pays only for what it calls.

`import axibeam` loads only `errors`, which imports no numpy, and resolves
the public names of `ultraspherical`, `designs`, `metrics`, `quadrature`
and `sampling` on first access.  A short CLI process costs mostly its
imports, so the child processes below run a command as `python -m axibeam`
does (`runpy`) and report on the process at its exit: every module it
imported, how many collections the cyclic collector ran once the entry
point's module began to run, whether numpy was loaded at that moment, and
how many objects were frozen.  Each check runs in a fresh child: this
process has already imported whatever the other test files use.

The process entry point `axibeam.__main__.run` pauses the collector before
it imports the CLI and freezes the heap on its way out, so neither the
imports nor the interpreter's exit run a collection; `cli.main`, which
callers run in their own process, leaves the collector as it found it.
"""

import gc
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from axibeam import __main__ as entry
from axibeam import cli

LAZY = ("axibeam.quadrature", "axibeam.sampling")
WEIGHTS = object()  # stands for the path of a weights file written for the test


def _run(args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


# The head of a child that runs the CLI: an audit hook notes the first time
# the code of `axibeam/__main__.py` runs (collections so far, numpy loaded
# or not), a collector callback counts collections, and an atexit handler
# ends stderr with the report, as `key: value` lines.
PROBE = """
import atexit
import gc
import sys

collections = []
entry = []


def on_exec(event, args):
    if event == "exec" and not entry and args[0].co_filename.endswith("__main__.py"):
        entry.append((len(collections), "numpy" in sys.modules))


def report():
    (before, numpy), = entry or [(None, None)]
    sys.stderr.write("\\n--report--\\n"
                     f"frozen: {gc.get_freeze_count()}\\n"
                     f"collections: {None if before is None else len(collections) - before}\\n"
                     f"numpy at entry: {numpy}\\n"
                     f"modules: {' '.join(sorted(sys.modules))}\\n")


gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(1))
sys.addaudithook(on_exec)
atexit.register(report)
sys.argv[0] = "axibeam"
"""

# runs the CLI like `python -m axibeam`
RUN_CLI = PROBE + """
import runpy

runpy.run_module("axibeam", run_name="__main__", alter_sys=True)
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
    sys.stderr.write(f"\\n--report--\\nfrozen: {gc.get_freeze_count()}\\n")
"""


def _child(code, *args):
    """(exit code, stdout, {key: value}) of a child running `code` with args, from its report."""
    proc = _run(["-c", code, *args])
    report = proc.stderr.rpartition("\n--report--\n")[2]
    return proc.returncode, proc.stdout, dict(line.split(": ", 1) for line in report.splitlines())


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
    got, _, report = _child(RUN_CLI, *argv)
    modules = set(report["modules"].split())
    assert got == code
    assert "axibeam.cli" in modules
    assert {m for m in loads if m not in modules} == set()
    # no record is a generated dataclass
    assert {m for m in (*skips, "dataclasses") if m in modules} == set()
    # the entry point runs before numpy loads, and from then on nothing collects
    assert report["numpy at entry"] == "False"
    assert report["collections"] == "0"


PACKAGE_CHECKS = """
import importlib
import sys

import axibeam as ab

assert not [m for m in ("numpy", "axibeam.ultraspherical", "axibeam.designs",
                        "axibeam.metrics", "axibeam.quadrature", "axibeam.sampling",
                        "json", "dataclasses") if m in sys.modules]
assert not [n for n in ab.__all__ if n not in dir(ab)]
# the front-to-back Gram matrix loads its own module, and no other lazy one
ab.gram_front(4, ab.Dimension(3))
assert "axibeam.ultraspherical" in sys.modules
assert not [m for m in ("axibeam.quadrature", "axibeam.sampling") if m in sys.modules]
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
# each public name is declared once: in `errors.__all__` or in `_LAZY`
declared = [ab.errors.__all__, *(ab._LAZY.values())]
assert sum(map(len, declared)) == len(set().union(*declared))
assert set(ab.__all__) == {"__version__"}.union(*declared)
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
    got, _, report = _child(RUN_CLI, *argv)
    assert got == code
    assert int(report["frozen"]) > 0
    assert report["collections"] == "0"


@pytest.mark.parametrize("argv, code", EXITS, ids=EXIT_IDS)
def test_cli_main_leaves_the_collector_alone(argv, code):
    got, _, report = _child(RUN_MAIN, *argv)
    assert (got, report["frozen"]) == (code, "0")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", EXITS, ids=EXIT_IDS)
def test_cli_main_keeps_the_collector_state(argv, code, enabled, capsys):
    was = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        try:
            assert cli.main(argv) == code
        except SystemExit as exc:  # argparse's exits, --version included
            assert exc.code == code
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


def test_script_target_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["axibeam"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is entry.run
    # the script, as its generated wrapper runs it, is `python -m axibeam`
    script = PROBE + f"from {module} import {name}\nsys.exit({name}())\n"
    argv = ["metrics", "--design", "maxre", "--orders", "1..3"]
    got, out, report = _child(script, *argv)
    assert (got, out) == _child(RUN_CLI, *argv)[:2]
    assert (report["numpy at entry"], report["collections"]) == ("False", "0")
    assert int(report["frozen"]) > 0


def test_cli_polyhedra_are_the_sampling_names():
    from axibeam import sampling

    assert cli._POLYHEDRA == sampling.PLATONIC_NAMES
