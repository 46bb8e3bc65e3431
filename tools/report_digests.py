"""The sha256 of the reports of a checkout, to show that a change moves no report byte.

Usage:
    python tools/report_digests.py --root CHECKOUT [--seeds 1 9173] [--scenarios 70] [--jobs 1 2]

Imports ``supchan`` from ``CHECKOUT/src`` and the benchmark's scenario
generator from ``CHECKOUT/perfbench/scenarios.py``, runs scenarios 0 to
N - 1 of the ``rand-d2``, ``rand-d4`` and ``pinned-d3`` keys at each seed
and each ``--jobs`` value in this process, and prints one JSON object that
maps ``<key>/<seed>/<k>/jobs<j>`` to the sha256 of the report that
``supchan verify`` writes for it (or to the error that refuses it).  It
writes no file.  To compare a parent commit with a change, export the
parent into a directory of its own (``git archive``), then

    python tools/report_digests.py --root PARENT > parent.json
    python tools/report_digests.py --root . > change.json
    cmp parent.json change.json
"""

import argparse
import hashlib
import json
import os
import sys

KEYS = ("rand-d2", "rand-d4", "pinned-d3")


def digests(root: str, seeds: list[int], scenarios: int, jobs: list[int]) -> dict:
    src = os.path.join(root, "src")
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import scenarios as gen
    import supchan
    from supchan import campaigns as cp
    from supchan import cli

    if not os.path.abspath(supchan.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported supchan from {supchan.__file__}, not from {src}")
    names = {w.key: w.name for w in reversed(gen.WORKLOADS.values())}
    out = {}
    for key in KEYS:
        for seed in seeds:
            for k in range(scenarios):
                scenario = cp.load_scenario(gen.scenario_text(names[key], seed, k))
                tols = cli._resolve_tols(scenario, None)
                for j in jobs:
                    try:
                        text = cp.render_json(cp.run_campaign(scenario, tols, jobs=j))
                        value = hashlib.sha256(text.encode()).hexdigest()
                    except Exception as exc:   # what verify refuses is compared by its message
                        value = f"error: {type(exc).__name__}: {exc}"
                    out[f"{key}/{seed}/{k}/jobs{j}"] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, help="checkout whose src and perfbench to use")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 9173])
    parser.add_argument("--scenarios", type=int, default=70, help="scenarios 0 to N - 1 of each key")
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    result = digests(os.path.abspath(args.root), args.seeds, args.scenarios, args.jobs)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
