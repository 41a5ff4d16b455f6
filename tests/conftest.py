"""Echo acceptance verdict lines in the terminal summary.

Default stdout capture hides print output from passing tests, so the
acceptance module records its verdict lines in a module-level list and
this hook replays them after the run, one line per criterion.
"""

import os
import sys

# Trials multiply small matrices, where a second BLAS thread only spins; test
# modules import numpy before pdra, so its own pin would come too late.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
