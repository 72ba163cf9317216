"""Time what a caller pays before the first start runs, in a fresh interpreter.

Usage: python3 probe_setup.py POLY [POLY ...]   (with the package on PYTHONPATH)

Covers ``import bnqn`` (numpy included), parsing each polynomial, building its
``PolyModulusObjective`` and computing its roots and critical points.  Prints
the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()
import bnqn  # noqa: E402

for text in sys.argv[1:]:
    objective = bnqn.PolyModulusObjective(bnqn.parse_polynomial(text))
    objective.roots()
    objective.critical_points()
print(repr(time.perf_counter() - t0))
