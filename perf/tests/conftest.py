"""Self-tests of the benchmark: ``python -m pytest perf/tests -q``.

Not part of the tier-1 suite (``testpaths`` stays ``tests``).
"""

import sys
from pathlib import Path

# The program under test is imported from the checkout, like the harness does.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
