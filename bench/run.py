"""End-to-end benchmark of the rankgames CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload costrr-optimize --seed 1 --seconds 25 --trace 0

One worker process (``bench/worker.py``) generates the workload's game
files from the seed, then issues CLI requests in a closed loop for about
the given number of seconds under a fixed ``PYTHONHASHSEED``: P passes
over as many instances as the first pass reaches in 1/P of the time
(``workloads.FAMILIES``).  Each timing is scaled by a host probe timed
at most 50 ms before it, and a request's latency is the median of its P
scaled timings (``per_request``).  Afterwards a second worker replays
the first instances under another hash seed; any difference in stdout or exit code counts as a
failure, and the strategy sizes are read from this replay.  On the
default seed, outputs are also compared with those recorded in
``bench/golden/``.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see ``bench/spans.py``).  Lines before it are the readable
report.  Exits non-zero, printing no result, when the checkout has no
``src/rankgames`` or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from spans import PER_LAYER  # noqa: E402

DEFAULT_SEED = 1
HASH_SEED = "0"  # fixed for timed runs; recorded in the report
CHECK_HASH_SEED = "1"  # second hash seed for the determinism replay
SETUP_REPS = 5
LIMIT_S = 20.0  # wall-clock limit per request
AS_LIMIT_MB = 3072  # address-space limit of each worker
MAIN_TIMEOUT_S = 130
REPLAY_TIMEOUT_S = 60
GOLDEN_INSTANCES = 100
# Time of the host probe (worker.host_probe) in the fast state of the
# host where bench/baseline.json was recorded.  Timed metrics are given in
# seconds at that host speed (see per_request).
REF_PROBE_S = 0.003

COMMANDS = ("optimize", "solve", "verify", "resilience")

# name -> (unit, better); the end-to-end metrics every workload reports.
END_TO_END = {
    "instances_per_s": ("1/s", "higher"),
    "solve_s.p50": ("s", "lower"),
    "verify_s.p50": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "strategy_states.geomean": ("states", "lower"),
    "strategy_kb.geomean": ("KiB", "lower"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _work_dir(workload: str) -> str:
    return os.path.join("bench", "_work", workload)


def spawn(job: dict, hash_seed: str, timeout: float) -> dict:
    """Run one worker to completion and return its result."""
    job_path = os.path.join(job["work"], f"job-{job['mode']}.json")
    job["result"] = os.path.join(job["work"], f"result-{job['mode']}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run([sys.executable, os.path.join("bench", "worker.py"), job_path],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(job["result"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(xs, p):
    """Nearest-rank percentile of sorted ``xs``, and how many samples lie beyond it."""
    k = max(math.ceil(p / 100 * len(xs)) - 1, 0)
    return xs[k], len(xs) - k - 1


def tail(xs):
    """The highest of a few percentiles with at least ten samples beyond it."""
    xs = sorted(xs)
    for p in (99.9, 99, 95, 90, 75, 50):
        value, beyond = percentile(xs, p)
        if beyond >= 10:
            return value, p
    return None, None


def _signature(rec) -> list:
    return [rec["argv"][0], rec["code"], rec["sha256"][:16]]


def compare(runs_a, runs_b) -> list:
    """Indices of instances whose request signatures differ."""
    return [i for i in sorted(set(runs_a) & set(runs_b)) if runs_a[i] != runs_b[i]]


def scaled(wall: float, probe: float) -> float:
    """``wall`` seconds measured when the host probe took ``probe`` seconds,
    as seconds at the reference host speed."""
    return wall * REF_PROBE_S / probe


def per_request(done) -> dict:
    """Per instance: the commands of its requests, the median over passes
    of each request's scaled time, and the number of passes that issued
    the same requests.

    Each timing is scaled by the host probe timed at most 50 ms before
    the request began.  On a shared host the speed switches by up to 1.6
    times within seconds and can stay slow for minutes; best-of-P inside
    one run does not remove that, the probe does (``worker.host_probe``).
    """
    runs = {}
    for e in done:
        cmds = [r["argv"][0] for r in e["records"]]
        times = [scaled(r["wall"], r["probe"]) for r in e["records"]]
        first = runs.setdefault(e["index"], [cmds, []])
        if first[0] == cmds:
            first[1].append(times)
    return {i: [cmds, [statistics.median(ts) for ts in zip(*passes)], len(passes)]
            for i, (cmds, passes) in runs.items()}


def end_to_end(workload: str, res: dict, sizes: list, report: list) -> dict:
    """End-to-end metrics; timings in seconds at the reference host speed
    (``per_request``)."""
    timed = per_request(res["done"])
    lat = {c: [] for c in COMMANDS}
    for cmds, times, _n in timed.values():
        for c, t in zip(cmds, times):
            lat[c].append(t)
    batch = wl.FAMILIES[workload]["batch"]
    totals = [sum(timed[i][1]) for i in sorted(timed)]
    rates = [batch / sum(totals[i:i + batch])
             for i in range(0, len(totals) - batch + 1, batch)]
    overall = len(totals) / sum(totals) if totals else 0.0
    setup = [scaled(t, p) for t, p in zip(res["setup_s"], res["setup_probes"])]
    states = statistics.geometric_mean(s[0] for s in sizes) if sizes else 0
    kib = statistics.geometric_mean(s[1] for s in sizes) / 1024 if sizes else 0
    m = {
        "instances_per_s": statistics.median(rates) if rates else overall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "strategy_states.geomean": states,
        "strategy_kb.geomean": kib,
    }
    probes = sorted({r["probe"] for e in res["done"] for r in e["records"]})
    walls = [r["wall"] for e in res["done"] for r in e["records"]]
    report.append(f"host probe: {len(probes)} timings, median "
                  f"{statistics.median(probes) * 1e3:.4f} ms, p10 "
                  f"{probes[len(probes) // 10] * 1e3:.4f} ms, reference "
                  f"{REF_PROBE_S * 1e3:.4f} ms; unscaled request time {sum(walls):.3f} s")
    passes = [n for _c, _t, n in timed.values()]
    report.append(f"instances: {len(timed)}, timed {min(passes, default=0)}-"
                  f"{max(passes, default=0)} times each; {len(rates)} batches of {batch}; "
                  f"mean rate {overall:.4f} instances/s")
    for c in COMMANDS:
        xs = lat[c]
        if not xs:
            report.append(f"{c}_s: not run on this workload")
            continue
        p50 = statistics.median(xs)
        m[f"{c}_s.p50"] = p50
        value, p = tail(xs)
        t = f"{value:.6f} s (p{p:g})" if value is not None else "n/a (too few samples)"
        report.append(f"{c}_s.p50 {p50:.6f} s   {c}_s.tail {t}   samples {len(xs)}")
    report.append("setup_s runs: " + ", ".join(f"{x:.4f} ({y:.4f} unscaled)"
                                               for x, y in zip(setup, res["setup_s"])))
    report.append(f"strategies written: {len(sizes)}, states sum "
                  f"{sum(s[0] for s in sizes)}, MB sum {sum(s[1] for s in sizes) / 1e6:.3f}")
    return m


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "rankgames", "cli.py")):
        raise BenchError("no src/rankgames in this checkout")
    work = _work_dir(args.workload)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    base = {"src": os.path.join(ROOT, "src"), "work": work, "workload": args.workload,
            "limit_s": LIMIT_S, "as_limit_mb": AS_LIMIT_MB}
    report = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}"]
    t0 = time.perf_counter()
    res = spawn(dict(base, mode="run", seed=args.seed, seconds=args.seconds,
                     trace=args.trace, setup_reps=SETUP_REPS),
                HASH_SEED, MAIN_TIMEOUT_S)
    first, repeats_differ = {}, set()
    for e in res["done"]:
        sig = [_signature(r) for r in e["records"]]
        if first.setdefault(e["index"], sig) != sig:
            repeats_differ.add(e["index"])
    records = [r for e in res["done"] for r in e["records"] + e.get("traced", [])]
    errors = [r for r in records if r["error"] is not None]

    # Replay the first instances under a second hash seed, in a second
    # worker: a determinism check, and the strategy sizes, which depend on
    # the seed only and stay out of the timed worker's peak RSS.
    picked = res["instances"][:wl.FAMILIES[args.workload]["sized"]]
    rep = spawn(dict(base, mode="replay", instances=picked),
                CHECK_HASH_SEED, min(REPLAY_TIMEOUT_S, 175 - (time.perf_counter() - t0)))
    replayed = {i: [_signature(r) for r in e["records"]] for i, e in enumerate(rep["done"])}
    sizes = [s for e in rep["done"] for s in e["sizes"]]
    records += [r for e in rep["done"] for r in e["records"]]
    errors += [r for e in rep["done"] for r in e["records"] if r["error"] is not None]
    unstable = sorted(repeats_differ | set(compare(first, replayed)))

    golden_diff = []
    if args.seed == DEFAULT_SEED:
        gpath = os.path.join(HERE, "golden", f"{args.workload}.json")
        if args.write_golden:
            keep = {str(i): first[i] for i in sorted(first)[:GOLDEN_INSTANCES]}
            with open(gpath, "w", encoding="utf-8") as fh:
                json.dump({"hash_seed": HASH_SEED, "instances": keep}, fh, indent=0)
                fh.write("\n")
        if os.path.exists(gpath):
            with open(gpath, "r", encoding="utf-8") as fh:
                golden = {int(k): v for k, v in json.load(fh)["instances"].items()}
            golden_diff = compare(first, golden)
            report.append(f"golden: {len(set(first) & set(golden))} instances compared, "
                          f"{len(golden_diff)} differ")
        else:
            report.append("golden: none recorded for this workload")
    for r in errors[:5]:
        report.append(f"FAILED {' '.join(r['argv'])}: {r['error']} {r['stderr'].strip()}")
    for i in unstable[:5]:
        report.append(f"FAILED instance {i}: stdout differs between passes or under "
                      f"PYTHONHASHSEED {CHECK_HASH_SEED}")
    for i in golden_diff[:5]:
        report.append(f"FAILED instance {i}: output differs from bench/golden")
    failed = len(errors) + len(unstable) + len(golden_diff)
    attempted = len(records)
    report.append(f"PYTHONHASHSEED {res['hash_seed']} for the run, {rep['hash_seed']} for "
                  f"the replay: {len(replayed)} instances replayed, {len(unstable)} differ")
    report.append(f"failed_ratio {failed / max(attempted, 1):.6f} ({failed} of {attempted})")

    if args.trace:
        metrics = res["per_layer"]
        units = {k: u for k, (u, _b) in PER_LAYER.items()}
        if res["absent"]:
            report.append("absent (reported as 0): " + ", ".join(res["absent"]))
        report.append(f"traced instances: {len(res['done'])}")
    else:
        metrics = end_to_end(args.workload, res, sizes, report)
        units = {k: u for k, (u, _b) in END_TO_END.items()}
        metrics = {k: metrics[k] for k in END_TO_END}
    for k, v in metrics.items():
        report.append(f"{k} {v:.6g} {units[k]}")
    return {"report": report,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()}}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's outputs as bench/golden (default seed only)")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.write_golden and args.seed != DEFAULT_SEED:
        ap.error("--write-golden needs the default seed")
    try:
        out = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, _work_dir(args.workload)), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, "bench", "_work"))
        except OSError:
            pass
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
