"""Per-layer metrics derived from the spans of one traced campaign.

Input: the span files the tracer wrote (one per process: the verify process
and each pool worker) and the probe of the traced campaign.  A span's self
time is its duration minus the durations of its direct children; ``.s`` is
inclusive time, summed over every process; ``.calls`` are exact counts.
"""

from __future__ import annotations

import glob
import os
import pickle
import statistics

import numpy as np

FAMILIES = ("spohn", "main", "clausius", "qdpi", "holevo", "mmap-consistency")
LINALG = ("linalg.eigh", "linalg.eigvalsh", "linalg.eig", "linalg.qr", "linalg.svd")

# (span name, kind) with kind "calls", "s" or "self_s"; each entry becomes
# the metric "<name>.<kind>".
_SIMPLE = [
    ("cli.cmd_verify", "self_s"),
    ("campaigns.evaluate_trial", "self_s"),
    ("campaigns.run_campaign", "self_s"),
    ("campaigns.render_json", "s"),
    *[(f"bounds.{f}", "self_s") for f in ("spohn", "main_bound", "clausius", "qdpi", "holevo")],
    *[(f"bounds.{f}", k) for f in ("measured_information", "trace_against_log") for k in ("calls", "s")],
    *[(f"superchannel.{f}", k) for f in ("build", "act", "act_normalized", "neso") for k in ("calls", "self_s")],
    ("dilation.mmap", "self_s"),
    ("dilation.operation_of", "s"),
    ("channels.fixed_point", "calls"),
    ("channels.fixed_point", "self_s"),
    ("channels.transfer_matrix", "s"),
    ("channels.random_cptp", "calls"),
    ("channels.random_cptp", "self_s"),
    *[(f"channels.{f}", k) for f in ("from_kraus", "from_choi") for k in ("calls", "s")],
    *[(f"channels.{f}", "s") for f in ("channel_from_dilation", "replace_channel", "apply",
                                         "kraus_of", "marginal_operation")],
    *[(f"states.{f}", k) for f in ("density", "haar_unitary", "von_neumann_entropy") for k in ("calls", "s")],
    *[(f"states.{f}", "s") for f in ("relative_entropy", "mutual_information", "random_density", "marginal")],
    ("matkernel.herm_eig", "calls"),
    ("matkernel.herm_eig", "self_s"),
    ("matkernel.partial_trace", "calls"),
    ("matkernel.partial_trace", "s"),
    ("matkernel.permutation_matrix", "s"),
    ("matkernel.tensor", "s"),
    ("matkernel.as_matrix", "calls"),
    ("linalg.einsum", "calls"),
    ("linalg.einsum", "s"),
    ("linalg.kron", "calls"),
]

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Every per-layer metric the traced run reports, with its unit.
METRICS: dict[str, str] = {
    **{f"{name}.{kind}": _UNITS[kind] for name, kind in _SIMPLE},
    "campaigns.load_scenario.s": "s",
    "campaigns.trial_ms.p50": "ms",
    "campaigns.trial_ms.p99": "ms",
    **{f"campaigns.{f}.trial_ms.p50": "ms" for f in FAMILIES},
    "campaigns.pool.tasks": "count",
    "campaigns.pool.scenario_parses": "count",
    "campaigns.pool.parse_s": "s",
    "campaigns.pool.busy_frac": "ratio",
    "superchannel.build.repeat_frac": "ratio",
    "channels.fixed_point.cesaro_frac": "ratio",
    "linalg.calls": "count",
    "linalg.s": "s",
    "linalg.share": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


class Process:
    """The spans of one process as numpy arrays."""

    def __init__(self, data: dict):
        self.pid = data["pid"]
        self.names = data["names"]
        self.nid = np.frombuffer(data["name_id"], dtype=np.intc)
        self.parent = np.frombuffer(data["parent"], dtype=np.int64)
        self.t0 = np.frombuffer(data["t0"], dtype=np.float64)
        self.t1 = np.frombuffer(data["t1"], dtype=np.float64)
        self.counts = dict(zip(self.names, data["counts"]))
        self.notes = data["notes"]
        self.dur = self.t1 - self.t0
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_t = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.nid), dtype=bool)
        return self.nid == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum()) + self.counts.get(name, 0)

    def notes_of(self, name: str) -> list[tuple[int, object]]:
        m = self.mask(name)
        return [(i, v) for i, v in self.notes if m[i]]


def load(trace_dir: str) -> list[Process]:
    procs = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.pkl"))):
        with open(path, "rb") as fh:
            procs.append(Process(pickle.load(fh)))
    return procs


def derive(procs: list[Process], main_pid: int, probe: dict, jobs: int,
           untraced_wall: float) -> dict[str, float]:
    """Every metric in METRICS for one traced campaign."""
    main = next(p for p in procs if p.pid == main_pid)
    workers = [p for p in procs if p.pid != main_pid]
    wall = probe["campaign_end"] - probe["campaign_start"]

    def total(name, kind, among=procs):
        if kind == "calls":
            return float(sum(p.calls(name) for p in among))
        arr = "dur" if kind == "s" else "self_t"
        return float(sum(getattr(p, arr)[p.mask(name)].sum() for p in among))

    out = {f"{name}.{kind}": total(name, kind) for name, kind in _SIMPLE}
    out["campaigns.load_scenario.s"] = total("campaigns.load_scenario", "s", [main])

    trial = [(p.dur[i] * 1e3, fam) for p in procs for i, fam in p.notes_of("campaigns.evaluate_trial")]
    ms = [t for t, _ in trial]
    out["campaigns.trial_ms.p50"] = float(np.percentile(ms, 50)) if ms else 0.0
    out["campaigns.trial_ms.p99"] = float(np.percentile(ms, 99)) if ms else 0.0
    for fam in FAMILIES:
        fam_ms = [t for t, f in trial if f == fam]
        out[f"campaigns.{fam}.trial_ms.p50"] = float(np.percentile(fam_ms, 50)) if fam_ms else 0.0

    out["campaigns.pool.tasks"] = total("campaigns._eval_task", "calls", workers)
    out["campaigns.pool.scenario_parses"] = total("campaigns.load_scenario", "calls", workers)
    out["campaigns.pool.parse_s"] = total("campaigns.load_scenario", "s", workers)
    out["campaigns.pool.busy_frac"] = (
        total("campaigns.evaluate_trial", "s", workers) / (jobs * wall) if workers else 0.0)

    builds = sorted((p.t0[i], digest) for p in procs for i, digest in p.notes_of("superchannel.build"))
    seen, repeats = set(), 0
    for _, digest in builds:
        repeats += digest in seen
        seen.add(digest)
    out["superchannel.build.repeat_frac"] = repeats / len(builds) if builds else 0.0

    methods = [m for p in procs for _, m in p.notes_of("channels.fixed_point")]
    out["channels.fixed_point.cesaro_frac"] = methods.count("cesaro") / len(methods) if methods else 0.0

    out["linalg.calls"] = sum(total(n, "calls") for n in LINALG)
    out["linalg.s"] = sum(total(n, "s") for n in LINALG)
    out["linalg.share"] = out["linalg.s"] / (jobs * wall)

    out["trace.overhead_frac"] = wall / untraced_wall - 1.0
    inside = (main.t0 >= probe["campaign_start"]) & (main.t1 <= probe["campaign_end"])
    out["trace.coverage"] = float(main.self_t[inside].sum()) / wall
    return out


def median_of(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in METRICS}


def call_counts(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if METRICS[k] == "count"}
