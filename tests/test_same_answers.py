"""``tools/same_answers.py``: its digests do not depend on the hash seed,
and they cover the strategy files the requests write, not only stdout.
Given two trees, it compares their answers request by request, and times
the requests whose answers differ in their strategy bytes alone."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_answers.py"


def _run(*args, hash_seed="0"):
    return subprocess.run(
        [sys.executable, str(TOOL), "--limit", "2", *args],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed), capture_output=True, text=True)


def _digests(*args, hash_seed="0"):
    done = _run("--workload", "rr-many-pairs", *args, hash_seed=hash_seed)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def spaced_tree(tmp_path):
    """A copy of the package that writes the same stdout and one more
    space in every strategy file."""
    shutil.copytree(ROOT / "src" / "rankgames", tmp_path / "rankgames",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "rankgames" / "fileformat.py"
    text = module.read_text(encoding="utf-8")
    old = """'{\\n  "memory": {\\n    "initial": '"""
    assert text.count(old) == 1
    module.write_text(text.replace(old, old[:-1] + " '"), encoding="utf-8")
    return str(tmp_path)


def test_digests_agree_across_hash_seeds():
    out = _digests()
    assert out.startswith("rr-many-pairs 2 instances 4 requests ")
    assert out == _digests(hash_seed="1")


def test_a_tree_writing_other_strategy_bytes_gets_another_digest(spaced_tree):
    assert _digests("--src", spaced_tree) != _digests()


def test_a_tree_against_itself_gives_the_same_answers():
    src = str(ROOT / "src")
    done = _run("--src", src, "--src", src)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    # A's digest line per workload, as one tree prints it, then per command
    # the requests timed and their B/A ratios
    assert [line for line in lines if not line.startswith("  ")] == _run().stdout.splitlines()
    timed = [line.split() for line in lines if line.startswith("  ")]
    assert {row[0] for row in timed} == {"optimize", "solve", "verify"}
    assert sum(int(row[1]) for row in timed) == sum(
        int(line.split()[3]) for line in lines if not line.startswith("  "))


def test_more_rounds_time_more_requests_and_print_the_same_digests():
    src = str(ROOT / "src")
    printed = []
    for rounds in ("1", "2"):
        done = _run("--workload", "rr-many-pairs", "--src", src, "--src", src,
                    "--rounds", rounds)
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout.splitlines())
    # digests from the first round only; every round's requests timed
    assert [printed[0][0]] == [printed[1][0]] == _digests().splitlines()
    timed = [{row.split()[0]: int(row.split()[1]) for row in lines[1:]} for lines in printed]
    assert timed[1] == {command: 2 * n for command, n in timed[0].items()}


def test_a_tree_writing_other_strategy_bytes_is_named_with_its_request(spaced_tree):
    done = _run("--workload", "rr-many-pairs", "--src", str(ROOT / "src"),
                "--src", spaced_tree)
    assert done.returncode == 1
    assert done.stderr == ("differs: rr-many-pairs instance 1 request 1 (solve "
                           "rr-many-pairs/r000.json --out rr-many-pairs/r000.win.json): "
                           "strategy\n")
    # the requests that differ only in their strategy bytes are timed too
    timed = [line.split() for line in done.stdout.splitlines() if line.startswith("  ")]
    assert {row[0]: int(row[1]) for row in timed} == {"solve": 2, "verify": 2}
