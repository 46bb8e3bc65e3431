"""One ``supchan verify`` process under the benchmark.

Usage: launch.py --probe FILE [--trace-dir DIR] -- verify ARGS...

Runs ``supchan.cli.main(["verify", ...])`` from the checkout's ``src`` and
writes a small JSON probe: the clock reading when ``run_campaign`` is
entered (the end of set-up), the reading when the CLI returns (after the
report is rendered and written), the exit code, and the peak resident set
of this process and of its reaped children (the pool workers).  The clock
is ``time.perf_counter``, CLOCK_MONOTONIC on Linux, so readings compare
with the parent's.  ``--trace-dir`` installs the span tracer first.
"""

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("verify", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.verify[1:] if args.verify[:1] == ["--"] else args.verify

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import supchan
    import supchan.campaigns as cp
    import supchan.cli

    if not os.path.abspath(supchan.__file__).startswith(src + os.sep):
        print(f"launch: imported supchan from {supchan.__file__}, not {src}", file=sys.stderr)
        return 4

    tracer = None
    if args.trace_dir is not None:
        import multiprocessing

        import tracer as tracer_mod

        if multiprocessing.get_start_method() != "fork":
            print("launch: traced pool runs need the fork start method", file=sys.stderr)
            return 4
        tracer = tracer_mod.Tracer(args.trace_dir)
        tracer.install()

    probe = {}
    run_campaign = cp.run_campaign

    def probed_run_campaign(*a, **k):
        probe["campaign_start"] = time.perf_counter()
        return run_campaign(*a, **k)

    cp.run_campaign = probed_run_campaign
    rc = supchan.cli.main(argv)
    probe["campaign_end"] = time.perf_counter()
    if tracer is not None:
        tracer.flush()
    probe["rc"] = rc
    probe["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(args.probe, "w", encoding="utf-8") as fh:
        json.dump(probe, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
