#!/usr/bin/env python3
"""CI launcher for the determinism linter (``repro.lint``).

Equivalent to ``repro lint`` / ``python -m repro.lint`` but runs from a
bare checkout with no install — it puts ``src/`` on ``sys.path`` itself,
the same trick :mod:`tools.check_docs` uses::

    python tools/reprolint.py [--json] [paths...]
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.lint.cli import main  # noqa: E402  (path setup must precede)

if __name__ == "__main__":
    raise SystemExit(main())
