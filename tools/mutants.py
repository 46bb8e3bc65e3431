"""Run the mutant catalogue ``tools/mutants.json`` against the test suite.

    python3 tools/mutants.py

Each catalogue entry names a file of the checkout, a source snippet that
occurs in ``src/`` exactly once, its replacement and the reason the tests
must tell the two apart.  The checkout's ``src/``, ``tests/``, ``tools/``,
``perfbench/`` and ``pyproject.toml`` are copied to a temporary directory,
where ``pytest -x -q`` first runs unmutated and must pass; then every
mutant gets a fresh copy with its replacement and ``pytest -x -q`` runs
again.  A run that fails kills the mutant.  One line per mutant gives the
verdict, the time taken and the first failing test.  Exits 1 if a mutant
survived.  Nothing in the checkout is written.
Uses the standard library only.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".bench_work")
TIMEOUT_S = 900


def _copy(dest: pathlib.Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: pathlib.Path) -> tuple[str, float, str]:
    """(verdict of the suite: "passed", "failed" or "timed out", seconds, first failure)."""
    t0 = time.monotonic()
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                             cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                             capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out", time.monotonic() - t0, ""
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return ("passed" if run.returncode == 0 else "failed"), time.monotonic() - t0, (failed or [""])[0]


def main() -> int:
    catalogue = json.loads((ROOT / "tools" / "mutants.json").read_text())
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = pathlib.Path(tmp) / "base"
        _copy(base)
        verdict, secs, first = _pytest(base)
        print(f"unmutated: {verdict} in {secs:.1f} s {first}".rstrip())
        if verdict != "passed":
            return 2
        for m in catalogue:
            tree = pathlib.Path(tmp) / m["name"]
            shutil.copytree(base, tree, ignore=IGNORED)
            path = tree / m["file"]
            text = path.read_text()
            if text.count(m["snippet"]) != 1:
                print(f"{m['name']}: snippet found {text.count(m['snippet'])} times in {m['file']}", file=sys.stderr)
                return 2
            path.write_text(text.replace(m["snippet"], m["replacement"]))
            verdict, secs, first = _pytest(tree)
            survived += verdict == "passed"
            print(f"{m['name']}: {'survived' if verdict == 'passed' else 'killed'} "
                  f"({verdict}) in {secs:.1f} s {first}".rstrip())
            shutil.rmtree(tree)
    print(f"{len(catalogue) - survived} killed, {survived} survived of {len(catalogue)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
