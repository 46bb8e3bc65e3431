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
import dataclasses
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


EXPLICIT = sorted(n for n in DIGESTS if json.loads((GOLDEN / f"{n}.json").read_text()).get("explicit"))


def trial_numbers(scenario, tols) -> list[str]:
    """The lhs, rhs, slack and metadata of every record of a campaign, in
    their exact JSON form."""
    report = cp.run_campaign(scenario, tols, jobs=1)
    return [json.dumps(cp.jsonable([rec[k] for k in ("lhs", "rhs", "slack", "metadata")]))
            for section in report["sections"].values() for rec in section["reports"]]


@pytest.mark.parametrize("name", EXPLICIT)
def test_load_time_objects_do_not_depend_on_the_run_slack_tolerance(name):
    # The explicit entries are read under the scenario's tolerances, before a
    # --slack-tol or SUPCHAN_SLACK_TOL override applies: the one case in which
    # the tolerances at load and at run differ.
    scenario = cp.load_scenario((GOLDEN / f"{name}.json").read_text())
    tols = scenario.tols(Tolerances())
    assert trial_numbers(scenario, dataclasses.replace(tols, slack_tol=2e-8)) == trial_numbers(scenario, tols)


@pytest.mark.parametrize("name", EXPLICIT)
def test_every_campaign_record_is_its_trial_alone(name):
    # A campaign shares main's pinned steady state among its blocks; a trial
    # alone, as explain runs it, finds its own, and the records agree bit
    # for bit.
    scenario = cp.load_scenario((GOLDEN / f"{name}.json").read_text())
    tols = scenario.tols(Tolerances())
    report = cp.run_campaign(scenario, tols, jobs=1)
    alone = {family: [cp.report_to_dict(cp.evaluate_trial(scenario, family, t, tols))
                      for t in range(scenario.trials)] for family in scenario.families()}
    assert cp.render_json({f: s["reports"] for f, s in report["sections"].items()}) == cp.render_json(alone)


if __name__ == "__main__":
    digest = explain_sha256 if sys.argv[1:] == ["explain"] else (lambda n: report_sha256(n, 1))
    names = sorted(p.stem for p in GOLDEN.glob("*.json") if p.name != "digests.json")
    print(json.dumps({n: digest(n) for n in names}, indent=2))
