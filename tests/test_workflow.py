"""The CI workflow's commands still resolve.

``.github/workflows/tests.yml`` runs the repository's tools and the
bench, and a renamed script, a dropped option or a workload renamed on
one side would first fail there.  The workflow is read as text, and
nothing it names is run: each ``tools/*.py`` and ``bench/*.py`` it
invokes must exist, each ``--flag`` it passes one must be an
``add_argument`` of that script, each test file it names must exist, the
workloads its bench step reads from ``BENCHMARK.json`` must be
``bench/workloads.py``'s ``WORKLOADS``, and the lowest Python of its
matrix must be the ``requires-python`` floor of ``pyproject.toml``.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
# a script and its arguments, up to a pipe, a redirection or the line's end
CALL = re.compile(r"\bpython3? ((?:tools|bench)/\w+\.py)([^|>\n]*)")


def test_each_script_exists_and_takes_the_flags_it_is_given():
    calls = CALL.findall(WORKFLOW)
    assert {script for script, _ in calls} >= {
        "tools/same_answers.py", "tools/code_lines.py", "tools/unreached.py", "bench/run.py"}
    for script, args in calls:
        source = (ROOT / script).read_text(encoding="utf-8")
        for flag in re.findall(r"(?<!\S)--[\w-]+", args):
            assert f'add_argument("{flag}"' in source, (script, flag)
        for path in re.findall(r"\btests/\w+\.py\b", args):
            assert (ROOT / path).is_file(), (script, path)


def test_the_bench_step_runs_the_declared_workloads(monkeypatch):
    assert 'json.load(open("BENCHMARK.json"))["workloads"]' in WORKFLOW
    assert '--workload "$w"' in WORKFLOW
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert tuple(w["name"] for w in declared) == workloads.WORKLOADS


def test_the_lowest_python_is_the_requires_python_floor():
    # the matrix starts at the oldest Python the package says it supports
    matrix = re.search(r"^\s*python-version: \[(.*)\]$", WORKFLOW, re.M).group(1)
    versions = [tuple(map(int, v.strip(' "').split("."))) for v in matrix.split(",")]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert min(versions) == tuple(map(int, floor.groups()))
