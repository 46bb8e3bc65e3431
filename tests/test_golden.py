"""Golden reports: the sha256 of every rendered golden scenario report, and
of the ``supchan explain --trial 0`` output (nats) for the same scenarios, is
pinned.

A change that moves any report byte fails here.  A change that must move bits
regenerates the digests with ``PYTHONPATH=src python tests/test_golden.py``
(reports, into ``golden/digests.json``) and ``... tests/test_golden.py
explain`` (into ``golden/explain/digests.json``), and records the largest
|delta slack| in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from supchan import campaigns as cp
from supchan import cli
from supchan.config import Tolerances

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())
EXPLAIN_DIGESTS = json.loads((GOLDEN / "explain" / "digests.json").read_text())


def report_sha256(name: str, jobs: int) -> str:
    scenario = cp.load_scenario((GOLDEN / f"{name}.json").read_text())
    report = cp.run_campaign(scenario, scenario.tols(Tolerances()), jobs=jobs)
    return hashlib.sha256(cp.render_json(report).encode()).hexdigest()


def explain_sha256(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["explain", "--scenario", str(GOLDEN / f"{name}.json"), "--trial", "0"])
    assert code == cli.EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_golden_scenario_has_a_digest():
    assert sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "digests.json") == sorted(DIGESTS)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_report_bytes(name, jobs):
    assert report_sha256(name, jobs) == DIGESTS[name]


def test_every_golden_scenario_has_an_explain_digest():
    assert sorted(EXPLAIN_DIGESTS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(EXPLAIN_DIGESTS))
def test_golden_explain_bytes(name, monkeypatch):
    monkeypatch.delenv("SUPCHAN_SLACK_TOL", raising=False)
    assert explain_sha256(name) == EXPLAIN_DIGESTS[name]


if __name__ == "__main__":
    digest = explain_sha256 if sys.argv[1:] == ["explain"] else (lambda n: report_sha256(n, 1))
    names = sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "digests.json")
    print(json.dumps({n: digest(n) for n in names}, indent=2))
