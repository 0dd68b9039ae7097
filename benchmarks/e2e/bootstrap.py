"""Locate the checkout and put its ``src`` first on ``sys.path``.

Every benchmark module imports this before ``repro`` so that the engine
under test is always the one in this checkout — never an installed copy —
and so that a directory holding the benchmark alone fails loudly instead
of measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
#: Everything a run leaves behind (durable databases, traces) goes here;
#: the directory is listed in the root ``.gitignore``.
OUT_DIR = BENCH_DIR / ".out"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no engine source at {SRC}; "
                     "run from a full checkout")
if str(SRC) not in sys.path[:1]:
    sys.path.insert(0, str(SRC))
