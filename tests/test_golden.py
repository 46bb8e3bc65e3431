"""Golden reports: the sha256 of every rendered golden scenario report is pinned.

A change that moves any report byte fails here.  A change that must move bits
regenerates the digests with ``PYTHONPATH=src python tests/test_golden.py``
and records the largest |delta slack| in CHANGES.md.
"""

import hashlib
import json
import pathlib

import pytest

from supchan import campaigns as cp
from supchan.config import Tolerances

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())


def report_sha256(name: str, jobs: int) -> str:
    scenario = cp.load_scenario((GOLDEN / f"{name}.json").read_text())
    report = cp.run_campaign(scenario, scenario.tols(Tolerances()), jobs=jobs)
    return hashlib.sha256(cp.render_json(report).encode()).hexdigest()


def test_every_golden_scenario_has_a_digest():
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "digests.json") == sorted(DIGESTS)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_report_bytes(name, jobs):
    assert report_sha256(name, jobs) == DIGESTS[name]


if __name__ == "__main__":
    names = sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "digests.json")
    print(json.dumps({n: report_sha256(n, 1) for n in names}, indent=2))
