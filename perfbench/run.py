"""Benchmark of ``supchan verify`` over four seed-generated campaign workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rand-d2-serial --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's scenarios from ``--seed`` (campaign k
runs scenario k) and runs ``supchan verify`` on them in a closed loop, one
process at a time, for ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced campaigns and reports the
per-layer metrics.  It checks every report, prints one line per metric and
a metadata line, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
It never sets the BLAS thread variables; it records them as found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy

import layers
import scenarios

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
SRC_PACKAGE = os.path.join(ROOT, "src", "supchan")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_CAMPAIGNS = 3
MIN_TRACED_PAIRS = 2
VERIFY_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Families whose bound is not a theorem for every instance: README, "A note
# on the generalized bound".  A failed trial there is a genuine violation
# that verify reports correctly (exit 1); about 1 in 2000 random d=2 `main`
# trials is one.  A failed trial of any other family is a wrong result.
MAY_VIOLATE = ("main", "qdpi")


@dataclass
class Campaign:
    """One ``supchan verify`` process and what it left behind."""

    pid: int
    rc: int
    setup_s: float
    campaign_s: float
    peak_rss_mb: float
    report: bytes
    attempted: int
    failed: int
    violations: int
    probe: dict
    stderr: str
    index: int = 0


def verify(work: str, scenario_path: str, jobs: int, attempted: int, *,
           trace_dir: str | None = None) -> Campaign:
    """Run one verify process to completion and read its probe and report."""
    probe_path = os.path.join(work, "probe.json")
    out_path = os.path.join(work, "report.json")
    for path in (probe_path, out_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, LAUNCH, "--probe", probe_path]
    if trace_dir is not None:
        cmd += ["--trace-dir", trace_dir]
    cmd += ["--", "verify", "--scenario", scenario_path, "--out", out_path, "--jobs", str(jobs)]
    env = dict(os.environ, TMPDIR=work)

    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=env, cwd=work, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=VERIFY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = f"verify did not finish within {VERIFY_TIMEOUT_S} s".encode()
    finally:
        # The verify process waits for its pool workers; this only stops
        # stragglers after a timeout or a crash.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    probe = {}
    if os.path.exists(probe_path):
        with open(probe_path, encoding="utf-8") as fh:
            probe = json.load(fh)
    report = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            report = fh.read()
    failed, violations = attempted, 0
    if proc.returncode in (0, 1) and report:
        failed = 0
        for family, section in json.loads(report)["sections"].items():
            summary = section["summary"]
            failed += summary["flagged_infinite"]
            if family in MAY_VIOLATE:
                violations += summary["failures"]
            else:
                failed += summary["failures"]
    start = probe.get("campaign_start", t_spawn)
    return Campaign(
        pid=proc.pid,
        rc=proc.returncode,
        setup_s=start - t_spawn,
        campaign_s=probe.get("campaign_end", start) - start,
        peak_rss_mb=max(probe.get("maxrss_self_kb", 0), probe.get("maxrss_children_kb", 0)) / 1024.0,
        report=report,
        attempted=attempted,
        failed=failed,
        violations=violations,
        probe=probe,
        stderr=err.decode(errors="replace"),
    )


def failures(campaigns: list[Campaign]) -> list[str]:
    """Campaigns that erred, or failed or flagged a trial other than a genuine violation."""
    errors = []
    for c in campaigns:
        if c.rc not in (0, 1) or c.failed or (c.rc == 1) != (c.violations > 0):
            tail = c.stderr.strip().splitlines()[-1:] or [""]
            errors.append(f"campaign {c.index}: exit {c.rc}, {c.failed} of {c.attempted} trials "
                          f"failed {tail[0]}")
    return errors


def closed_loop(seconds: float, minimum: int, step) -> list:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` pass, at least ``minimum`` times."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < minimum or time.perf_counter() < deadline:
        out.append(step(len(out)))
    return out


class Runner:
    """Runs the campaigns of one workload and seed inside a work directory.

    Campaign k runs scenario k of the seed, so the run's median averages
    over the instance mix of many scenarios, not of one.
    """

    def __init__(self, workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.jobs = scenarios.jobs_of(workload)
        self.attempted = scenarios.attempted_trials(scenarios.scenario(workload.name, seed))

    def verify(self, k: int, jobs: int | None = None, **kwargs) -> Campaign:
        path = os.path.join(self.work, f"scenario-{k}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(scenarios.scenario_text(self.workload.name, self.seed, k))
        c = verify(self.work, path, self.jobs if jobs is None else jobs, self.attempted, **kwargs)
        c.index = k
        return c

    def check_first(self, first: Campaign, warmup: Campaign) -> list[str]:
        """Byte checks on scenario 0: rerun, recorded sha256, serial twin."""
        errors = failures([warmup])
        if warmup.report != first.report:
            errors.append("scenario 0: two runs gave different report bytes")
        expected = _expected()
        if self.seed == expected["default_seed"]:
            got = hashlib.sha256(first.report).hexdigest()
            want = expected["report_sha256"][self.workload.name]
            if got != want:
                errors.append(f"{self.workload.name}: report sha256 {got} != recorded {want} "
                              f"at seed {self.seed}")
        return errors

    def measure(self, seconds: float, warmup: Campaign):
        """End-to-end metrics, measured with tracing off."""
        campaigns = closed_loop(seconds, MIN_CAMPAIGNS, self.verify)
        errors = failures(campaigns) + self.check_first(campaigns[0], warmup)
        done = [c for c in campaigns if c.rc in (0, 1)]

        def median(values):
            return statistics.median(values) if values else 0.0

        metrics = {
            "trials_per_s": median([c.attempted / c.campaign_s for c in done]),
            "setup_s": median([c.setup_s for c in done]),
            "peak_rss_mb": median([c.peak_rss_mb for c in done]),
        }
        if self.jobs > 1:
            # The serial run of scenario 0 is a check, not a sample.
            serial = self.verify(0, jobs=1)
            errors += failures([serial])
            if serial.report != campaigns[0].report:
                errors.append(f"{self.workload.name}: --jobs {self.jobs} report differs "
                              "from the --jobs 1 report")
            campaigns.append(serial)
        return campaigns, errors, metrics, END_TO_END

    def measure_traced(self, seconds: float, warmup: Campaign):
        """Per-layer metrics from alternating untraced and traced campaigns.

        Every pair runs scenario 0, so call counts must repeat exactly.
        """
        trace_dir = os.path.join(WORK_ROOT, f"trace-{self.workload.name}")

        def pair(_k):
            plain = self.verify(0)
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            traced = self.verify(0, trace_dir=trace_dir)
            derived = None
            if plain.rc in (0, 1) and traced.rc in (0, 1):
                derived = layers.derive(layers.load(trace_dir), traced.pid, traced.probe,
                                        self.jobs, plain.campaign_s)
            return plain, traced, derived

        pairs = closed_loop(seconds, MIN_TRACED_PAIRS, pair)
        campaigns = [c for plain, traced, _ in pairs for c in (plain, traced)]
        errors = failures(campaigns) + self.check_first(pairs[0][0], warmup)
        if len({c.report for c in campaigns}) > 1:
            errors.append("scenario 0: traced and untraced runs gave different report bytes")
        derived = [d for _, _, d in pairs if d is not None]
        if len({tuple(sorted(layers.call_counts(d).items())) for d in derived}) > 1:
            errors.append("scenario 0: call counts differ between traced campaigns")
        metrics = layers.median_of(derived) if derived else {k: 0.0 for k in layers.METRICS}
        return campaigns, errors, metrics, layers.METRICS


def _expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metadata() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    src = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "env": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "cli.py")):
        print(f"perfbench: no supchan sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2

    workload = scenarios.WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(workload, args.seed, work)
        warmup = runner.verify(0)  # fills the caches; its report is checked, not timed
        measure = runner.measure_traced if args.trace else runner.measure
        campaigns, errors, metrics, units = measure(args.seconds, warmup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    total = sum(c.attempted for c in campaigns)
    failed = sum(c.failed for c in campaigns)
    print(f"{workload.name}: seed {args.seed}, {len(campaigns)} campaigns of {runner.attempted} "
          f"trials, --jobs {runner.jobs}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / total:.6g} ratio")
    print(f"  {'genuine violations (main, qdpi)':42s} {sum(c.violations for c in campaigns)} count")
    for e in errors:
        print(f"CORRECTNESS FAILURE: {e}")
    print("meta: " + json.dumps(metadata(), sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": total,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
