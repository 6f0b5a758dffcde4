"""Let the ``python -m triqsvm`` subprocesses of the CLI tests import the
package from a source checkout.  ``pythonpath`` in pyproject.toml puts
``src/`` on this process's path only; children see ``PYTHONPATH``."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
