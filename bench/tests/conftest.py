"""Harness self-tests.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/tests -q

(the tier-1 ``testpaths`` in pyproject.toml do not include this directory).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
