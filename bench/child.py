"""One fsdim CLI command in a fresh process, timed from inside.

    python3 child.py SRC_DIR REPORT_PATH TRACE ARGV...

Imports fsdim from SRC_DIR, installs the tracer when TRACE is 1, times
`fsdim.cli.dispatch(ARGV)` and writes a JSON report to REPORT_PATH. The
command's own stdout and stderr pass through untouched.

Right before and right after `dispatch` the child also times a fixed piece
of pure-Python work that does not touch fsdim. The host's speed drifts by
more than 1.5x over seconds to minutes; the parent divides by this
reference time to report seconds at a nominal host speed.
"""

import sys
import time


def reference_work() -> int:
    """Fixed pure-Python work in the style of fsdim's searches: a BFS over
    tuples with a visited set and small Fraction comparisons."""
    from collections import deque
    from fractions import Fraction

    seen = {(0, 0)}
    frontier = deque([(0, 0)])
    hits = 0
    while frontier:
        state, depth = frontier.popleft()
        if depth == 24:
            continue
        for a in (0, 1):
            nxt = ((state * 31 + a * 17 + depth) % 251, depth + 1)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
        if Fraction(state, 251) < Fraction(depth + 1, 25):
            hits += 1
    return hits


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def main() -> int:
    src, report, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    sys.path.insert(0, src)
    import fsdim.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()  # CLOCK_MONOTONIC: comparable with the parent's spawn time
    reference_before = timed_reference()
    t0 = time.perf_counter()
    rc = fsdim.cli.dispatch(argv)
    dispatch_s = time.perf_counter() - t0
    sys.stdout.flush()
    reference_s = (reference_before + timed_reference()) / 2

    import json
    import resource

    out = {"ready": ready, "dispatch_s": dispatch_s, "reference_s": reference_s, "rc": rc,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["trace"] = tracer.export()
    with open(report, "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
