"""Hash the answers the CLI gives on the bench workloads, one digest per
workload.

Usage, from any directory:

    python3 tools/same_answers.py [--src DIR] [--workload NAME] [--limit N]

For each workload of ``bench/workloads.py``, the instances of the bench's
default seed (the one ``bench/golden`` records) are generated into a
temporary directory.  Then every request of every instance's plan runs
in this process as the bench worker runs it (``bench/worker.py``'s
``import_rankgames`` and ``run_instance``; nothing under ``bench/`` is
written), with the package imported from ``DIR`` (default: the ``src``
of the checkout this script sits in).  With ``--limit N`` only the first
N instances of each workload run.

One line is printed per workload: its name, the instances and requests
run, and a sha256 over, request by request, the argv (game and strategy
paths relative to the temporary directory), the exit code, stdout,
stderr (its last 500 characters, as the worker keeps it) and the bytes
of the strategy file written by ``--out``.  ``bench/golden`` records
stdout only, not strategy files.  Two trees, or two runs under different
``PYTHONHASHSEED`` values, give the same answers when they print the
same lines.

Exits 1 when a request fails or a plan finds an answer wrong (the reason
goes to stderr; the digest still covers every request that ran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402
import worker  # noqa: E402
from run import DEFAULT_SEED, LIMIT_S  # noqa: E402


def answers(rk, guard, workload: str, limit) -> tuple:
    """Instances run, requests run, digest and failed requests of one
    workload, built and run in the current directory."""
    instances = wl.build(workload, rk, DEFAULT_SEED, workload)[:limit]
    digest, requests, failed = hashlib.sha256(), 0, []
    for inst in instances:
        for rec in worker.run_instance(rk, guard, inst):
            requests += 1
            row = [rec["argv"], rec["code"], rec["stdout"], rec["stderr"]]
            digest.update(json.dumps(row).encode() + b"\n")
            argv = rec["argv"]
            if "--out" in argv:
                out = Path(argv[argv.index("--out") + 1])
                data = out.read_bytes() if out.exists() else b""
                digest.update(b"%d\n" % len(data) + data)
            if rec["error"] is not None:
                failed.append(f"{inst.game}: {rec['error']}")
    return len(instances), requests, digest.hexdigest(), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the rankgames package to run")
    ap.add_argument("--workload", choices=wl.WORKLOADS, action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N instances of each workload")
    args = ap.parse_args(argv)
    rk = worker.import_rankgames(os.path.abspath(args.src))
    guard = worker.Guard(LIMIT_S)
    failed = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="same-answers-") as work:
        os.chdir(work)
        try:
            for workload in args.workload or wl.WORKLOADS:
                n, requests, digest, bad = answers(rk, guard, workload, args.limit)
                print(f"{workload} {n} instances {requests} requests {digest}", flush=True)
                failed += bad
        finally:
            os.chdir(home)
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
