"""Runs the cfx command line straight from the source tree.

Usage: python3 perfbench/launch.py SUBCOMMAND ARGS...

A fresh checkout has no ``cfx`` console script and no ``cfx/__main__.py``,
so the benchmark calls ``cfx.cli.main`` with ``src`` on the import path.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from cfx.cli import main

    sys.exit(main(sys.argv[1:]))
