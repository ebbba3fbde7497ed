"""Make ``bench_e2e`` and the program importable from the tests.

The tests are not under tier-1's ``testpaths``; run them with
``python3 -m pytest bench_e2e/tests`` from the repository root.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
