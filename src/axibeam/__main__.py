"""The process entry point of `python -m axibeam` and of the `axibeam` script: `run`.

`run` pauses the cyclic collector before it imports the CLI, so numpy's and
axibeam's imports run no collection, and freezes the heap on the way out,
so the interpreter's exit skips a collection of the whole heap.  The
package imports no numpy (see `axibeam/__init__.py`), so both happen in
every CLI process before numpy loads.  `cli.main`, which callers run in
their own process, leaves the collector alone.
"""

import gc
import sys


def run() -> int:
    """`cli.main()` on sys.argv, the collector paused from the start, the heap frozen at the end.

    A short command allocates a few hundred thousand objects, nearly all of
    them module state that lives until exit, so a collection pass finds
    almost nothing: during the imports the collector ran about 30 passes
    (4-5 ms on a 2-vCPU Xeon), and at exit CPython collects the whole heap
    (about 20 ms), more than a short command's own work.  Frozen objects
    are never collected, so the exit skips that pass; it still runs atexit
    handlers, flushes stdout and stderr and tears the modules down.  What
    the pause and the freeze drop is the freeing of cyclic garbage before
    exit, which a process this short never misses, and its finalization at
    exit, which Python does not promise anyway.  `finally` covers
    argparse's SystemExit too.
    """
    gc.disable()
    try:
        from .cli import main

        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
