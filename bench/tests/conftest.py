"""Put the repository root (for ``bench``) and ``src`` (for ``rigidlab``) on the path.

Run the benchmark's own tests from the repository root::

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
