"""Reference child process: the machine's speed at starting Python and importing.

Set-up and CLI calls are fresh processes, mostly interpreter start-up and
imports, and their speed follows the host's drift differently from compute
in a running process.  ``time_reference`` times a fixed process of the same
kind that does not touch the package, ``python -c "import numpy,
scipy.linalg"``; the time of a set-up or a CLI call in reference seconds is
its wall time divided by the mean of the reference runs right before and
right after it over ``REF_S``.

No numpy here: the launcher imports this module.
"""

from __future__ import annotations

import subprocess
import sys
import time

REF_S = 0.35     # one reference process on an unloaded 2-vCPU Xeon VM, OpenBLAS pinned to one thread


def time_reference(env) -> float:
    """Seconds taken by one reference process."""
    start = time.perf_counter()
    # with a timeout, Popen.wait polls in sleeps of up to 50 ms; waiting on the
    # child's output pipe ends when the child exits, to the millisecond
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], env=env, check=True, timeout=60,
                   capture_output=True)
    return time.perf_counter() - start
