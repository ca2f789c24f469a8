"""Child-process probes: import time and peak memory of a fresh interpreter.

Run with ``python3 -I -B probe.py <src-dir> setup`` to print the seconds
``import riskshare.cli`` takes, timed inside the child so interpreter start-up
is excluded; or ``... <src-dir> op <argv-file>`` to run each argv list of one
op through ``riskshare.cli.main`` and print the exit codes and the peak RSS
(``VmHWM``, so Linux only).
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

if sys.argv[2] == "setup":
    start = time.perf_counter()
    import riskshare.cli  # noqa: F401

    print(repr(time.perf_counter() - start))
else:
    import contextlib
    import io
    import json

    from riskshare.cli import main

    with open(sys.argv[3], encoding="utf-8") as fh:
        ops = json.load(fh)
    def run(argv):
        try:
            return main(argv)
        except Exception as exc:  # reported to the parent as a failed op
            return repr(exc)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        codes = [run(argv) for argv in ops]
    # VmHWM is this process image's own peak; ru_maxrss would also count the
    # parent's memory, which a vfork-and-exec child inherits as its high-water mark.
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"codes": codes, "peak_kib": peak_kib}))
