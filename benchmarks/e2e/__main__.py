"""Entry point: ``python3 benchmarks/e2e/__main__.py`` or ``python -m benchmarks.e2e``.

Both forms run from any directory: the repository root and ``src/`` are
put on ``sys.path`` from this file's own location.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
# run as a script, sys.path[0] is this directory: drop it so the
# benchmark's modules are only reachable as ``benchmarks.e2e.*``
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != _HERE]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e measures the program under {_ROOT / 'src'}, which is missing")
for entry in (_ROOT / "src", _ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
