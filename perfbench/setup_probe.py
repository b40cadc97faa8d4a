"""Time quasiwork's one-time set-up in a fresh interpreter.

Covers ``import quasiwork``, ``load_config`` on the reference config and the
first ``propagator_closed`` call, which runs the one-time Schrodinger
self-check.  With the argument ``reference`` it times only the imports of
quasiwork's dependencies (numpy, yaml), the unit that set-up times are scaled
by.  Run from the root of a checkout with ``src`` on PYTHONPATH; prints the
seconds taken as its only line.
"""

import sys
import time

start = time.perf_counter()

if sys.argv[1:] == ["reference"]:
    import numpy  # noqa: E402,F401
    import yaml  # noqa: E402,F401
else:
    import quasiwork  # noqa: E402,F401
    from quasiwork.config import load_config  # noqa: E402
    from quasiwork.propagate import propagator_closed  # noqa: E402

    config = load_config("configs/reference.yaml")
    propagator_closed(0.0, config.params)
print(repr(time.perf_counter() - start))
