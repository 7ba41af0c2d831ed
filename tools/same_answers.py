"""Hash the answers the CLI gives on the bench workloads, one digest per
workload; or run two trees side by side and compare their answers
request by request.

Usage, from any directory:

    python3 tools/same_answers.py [--src DIR [--src DIR]] [--workload NAME] [--limit N]
                                  [--rounds N]

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
same lines.  ``tools/same_answers.txt`` records the lines of a run over
every instance; a change meant to alter output records them again with
``python3 tools/same_answers.py > tools/same_answers.txt``.

With ``--src`` given twice, trees A and B are both imported into this
process, each keeping its own modules, and each instance's plan runs
once per tree in each of ``--rounds N`` rounds (default 1), A first on
the first instance of the first round and the order swapped on each
next instance and each next round.  The line printed per workload is
A's, over the first round's answers, so it does not depend on N.  After
it, one line per command gives the requests timed in all rounds, the
median and quartiles of the per-request wall-time ratio B/A, and how
often B was faster; these timings are not checked.  A request is timed
when the two trees' records agree on all but, at most, the strategy
bytes, so a change that writes other strategy files on purpose still
gets a ratio for the requests that write them.
The records (exit code, stdout, stderr, failure) and strategy bytes of
the two trees are compared request by request in every round, and the
first request that differs is named on stderr.

Exits 1 when a request fails, a plan finds an answer wrong, or two trees
differ (the reason goes to stderr; the digest still covers every request
that ran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import types
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads as wl  # noqa: E402
import worker  # noqa: E402
from run import DEFAULT_SEED, LIMIT_S  # noqa: E402

COMPARED = ("argv", "code", "stdout", "stderr", "error", "strategy")


class Tree:
    """The package imported from one src directory, usable as the
    worker's ``rk``.  Its modules are kept, and put back into
    ``sys.modules`` before each of its requests, so two trees run side
    by side in one process."""

    def __init__(self, src: str):
        self.rk = worker.import_rankgames(src)
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "rankgames" or name.startswith("rankgames.")}
        self.cli = types.SimpleNamespace(main=self.main)

    def main(self, argv) -> int:
        sys.modules.update(self.modules)
        return self.rk.cli.main(argv)


def run_tree(tree: Tree, guard, inst) -> list:
    """``run_instance``'s records for one instance; each also holds the
    bytes of the strategy file its ``--out`` wrote (empty if none).  The
    files are removed once read, so another tree's run finds none."""
    records = worker.run_instance(tree, guard, inst)
    outs = {rec["argv"][rec["argv"].index("--out") + 1]
            for rec in records if "--out" in rec["argv"]}
    written = {out: Path(out).read_bytes() for out in outs if os.path.exists(out)}
    for out in outs:
        Path(out).unlink(missing_ok=True)
    for rec in records:
        argv = rec["argv"]
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        rec["strategy"] = written.get(out, b"")
    return records


def _difference(a, b):
    """The fields in which two records of one request differ."""
    if a is None or b is None:
        return ["missing in " + ("A" if a is None else "B")]
    return [key for key in COMPARED if a[key] != b[key]]


def _quartiles(ratios):
    if len(ratios) == 1:
        return ratios[0], ratios[0], ratios[0]
    return tuple(statistics.quantiles(ratios, n=4, method="inclusive"))


def answers(trees, guard, workload: str, limit, rounds: int = 1) -> tuple:
    """Instances run, requests run, digest (of the first tree's answers in
    the first round), failed requests, the first request two trees answer
    differently (or None) and ``{command: [wall-time ratio B/A per request
    and round]}`` of one workload, built and run in the current directory."""
    instances = wl.build(workload, trees[0].rk, DEFAULT_SEED, workload)[:limit]
    digest, requests, failed, differ, ratios = hashlib.sha256(), 0, [], None, {}
    for r in range(rounds):
        for i, inst in enumerate(instances):
            runs = [None] * len(trees)
            for k in range(len(trees))[::1 if (i + r) % 2 == 0 else -1]:
                runs[k] = run_tree(trees[k], guard, inst)
            for rec in runs[0] if r == 0 else ():
                requests += 1
                row = [rec["argv"], rec["code"], rec["stdout"], rec["stderr"]]
                digest.update(json.dumps(row).encode() + b"\n")
                if "--out" in rec["argv"]:
                    digest.update(b"%d\n" % len(rec["strategy"]) + rec["strategy"])
            for label, recs in zip("AB", runs):
                tag = f"{label}: " if len(trees) > 1 else ""
                failed += [f"{tag}{inst.game}: {e['error']}"
                           for e in recs if e["error"] is not None]
            if len(trees) == 1:
                continue
            for j, (a, b) in enumerate(zip_longest(*runs)):
                fields = _difference(a, b)
                if fields and differ is None:
                    argv = " ".join((a or b)["argv"])
                    differ = (f"{workload} instance {i + 1} request {j + 1} ({argv}): "
                              + ", ".join(fields))
                if set(fields) <= {"strategy"}:
                    ratios.setdefault(a["argv"][0], []).append(b["wall"] / a["wall"])
    return len(instances), requests, digest.hexdigest(), failed, differ, ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append",
                    help="directory holding the rankgames package to run; give it "
                    "twice to compare two trees (default: this checkout's src)")
    ap.add_argument("--workload", choices=wl.WORKLOADS, action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N instances of each workload")
    ap.add_argument("--rounds", type=int, default=1,
                    help="with two trees, run every instance N times per tree "
                    "(digests come from the first round)")
    args = ap.parse_args(argv)
    srcs = args.src or [str(ROOT / "src")]
    if len(srcs) > 2:
        ap.error("--src is given at most twice")
    if args.rounds < 1 or (args.rounds > 1 and len(srcs) < 2):
        ap.error("--rounds takes a positive count, and more than one needs two trees")
    trees = [Tree(os.path.abspath(src)) for src in srcs]
    guard = worker.Guard(LIMIT_S)
    failed, differ = [], None
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="same-answers-") as work:
        os.chdir(work)
        try:
            for workload in args.workload or wl.WORKLOADS:
                n, requests, digest, bad, first, ratios = answers(
                    trees, guard, workload, args.limit, args.rounds)
                print(f"{workload} {n} instances {requests} requests {digest}", flush=True)
                for command in sorted(ratios):
                    r = ratios[command]
                    q1, med, q3 = _quartiles(r)
                    faster = sum(x < 1 for x in r)
                    print(f"  {command} {len(r)} requests B/A {med:.3f} "
                          f"[{q1:.3f}, {q3:.3f}] B faster in {faster} of {len(r)}",
                          flush=True)
                failed += bad
                differ = differ or first
        finally:
            os.chdir(home)
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    if differ is not None:
        print(f"differs: {differ}", file=sys.stderr)
    return 1 if failed or differ is not None else 0


if __name__ == "__main__":
    sys.exit(main())
