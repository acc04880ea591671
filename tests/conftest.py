import os
from pathlib import Path

import axibeam

# Some tests run `python -m axibeam` in a child process.  Put the source root of
# the package under test on the child's path, so those tests check this tree
# and pass without an install.
_SOURCE_ROOT = str(Path(axibeam.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SOURCE_ROOT, os.environ.get("PYTHONPATH")) if p
)
