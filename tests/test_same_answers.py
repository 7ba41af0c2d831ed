"""``tools/same_answers.py``: its digests do not depend on the hash seed,
and they cover the strategy files the requests write, not only stdout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_answers.py"


def _digests(*args, hash_seed="0"):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "rr-many-pairs", "--limit", "2", *args],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed), capture_output=True, text=True,
        check=True)
    return done.stdout


def test_digests_agree_across_hash_seeds():
    out = _digests()
    assert out.startswith("rr-many-pairs 2 instances 4 requests ")
    assert out == _digests(hash_seed="1")


def test_a_tree_writing_other_strategy_bytes_gets_another_digest(tmp_path):
    # the same stdout, one more space in every strategy file
    shutil.copytree(ROOT / "src" / "rankgames", tmp_path / "rankgames",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "rankgames" / "fileformat.py"
    text = module.read_text(encoding="utf-8")
    old = """'{\\n  "memory": {\\n    "initial": '"""
    assert text.count(old) == 1
    module.write_text(text.replace(old, old[:-1] + " '"), encoding="utf-8")
    assert _digests("--src", str(tmp_path)) != _digests()
