"""Set-up step timed as setup_s: a fresh process imports lincfg and runs
`lincfg fit` on each (data, stats) pair given on the command line.

usage: python3 fit.py DATA STATS [DATA STATS ...]

The last stdout line is time.monotonic() after the last fit. The parent
takes setup_s from its own clock reading before the spawn to this one,
because waiting for the child's exit with a timeout polls in steps of up
to 50 ms.
"""

import contextlib
import io
import sys
import time

import lincfg.cli

with contextlib.redirect_stdout(io.StringIO()):
    pairs = list(zip(sys.argv[1::2], sys.argv[2::2]))
    codes = [lincfg.cli.main(["fit", data, stats]) for data, stats in pairs]
if any(codes) or not pairs:
    sys.exit(f"lincfg fit exit codes {codes}")
print(time.monotonic())
