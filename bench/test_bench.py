"""Tests of the benchmark itself: the runaway guard, the refusal to run
without the package, and the span tracer.

Run from the checkout root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def _write_costrr(tmp_path, name, game) -> wl.Instance:
    from rankgames import fileformat as ff
    from rankgames.rrcost import cap_bound

    path = str(tmp_path / f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ff.game_to_doc(ff.LoadedGame("costrr", game.arena,
                                               game.spec.rr_objective(), costrr=game)), fh)
    return wl.Instance("costrr", path, str(tmp_path / name), cap=cap_bound(game))


def test_guard_stops_the_blowup_instance_and_the_worker_goes_on(tmp_path):
    from rankgames import gen

    # Grows past 4 GB in build_reduction when left alone.
    blowup = gen.random_costrr_game(random.Random(3), 20, 3, 2, p0_max_outdeg=3)
    small = gen.random_costrr_game(random.Random(5), 5, 1, 2, p0_max_outdeg=2)
    limit_s, as_limit_mb = 8.0, 1024
    job = {"mode": "replay", "src": SRC, "limit_s": limit_s, "as_limit_mb": as_limit_mb,
           "result": str(tmp_path / "result.json"),
           "instances": [_write_costrr(tmp_path, "blowup", blowup).to_json(),
                         _write_costrr(tmp_path, "small", small).to_json()]}
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(job_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads((tmp_path / "result.json").read_text())
    [hit] = res["done"][0]["records"]
    assert hit["argv"][0] == "optimize"
    assert hit["error"] is not None
    assert hit["error"].startswith(("timeout", "address-space"))
    assert hit["wall"] < limit_s + 5
    assert res["peak_rss_mb"] < as_limit_mb
    # the next instance runs normally in the same worker
    after = res["done"][1]["records"]
    assert after and all(r["error"] is None for r in after)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rr-many-pairs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_covers_a_request_and_reports_every_metric(tmp_path):
    rk = worker.import_rankgames(SRC)
    [inst] = wl.build("rr-many-pairs", rk, 7, str(tmp_path))[:1]
    guard = worker.Guard(30.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        recs = worker.run_instance(rk, guard, inst)
    finally:
        tracer.uninstall()
    assert [r["error"] for r in recs] == [None, None]
    assert rk.cli.main is getattr(rk.cli.main, "__wrapped__", rk.cli.main)
    wall = sum(r["wall"] for r in recs)
    m = tracer.report(1, wall, wall)
    assert set(m) == set(spans.PER_LAYER)
    assert m["cli.calls"] == 2
    assert m["qualsolve.rr_memory.calls"] == 1
    assert 0 < m["qualsolve.rr_memory.used_ratio"] <= 1
    assert m["fileformat.write_strategy.bytes"] > 0
    assert 0.5 < m["trace.coverage"] <= 1
    assert tracer.absent == []


def test_tracer_reports_a_missing_function_as_absent():
    worker.import_rankgames(SRC)
    saved = spans.SPANS
    spans.SPANS = saved + (("arena", "no_such_function"),)
    try:
        tracer = spans.Tracer()
    finally:
        spans.SPANS = saved
    assert tracer.absent == ["arena.no_such_function"]


def test_request_time_is_the_median_of_its_scaled_timings():
    import run

    def entry(index, probe, walls, cmds=("optimize", "verify")):
        return {"index": index,
                "records": [{"argv": [c], "wall": w, "probe": probe}
                            for c, w in zip(cmds, walls)]}

    ref = run.REF_PROBE_S
    done = [entry(0, ref, [1.0, 0.5]),
            entry(0, 2 * ref, [3.0, 1.0]),  # slow host: probe and request both slower
            entry(0, ref, [1.2, 0.4]),
            entry(0, ref, [9.0], cmds=("optimize",))]  # other requests: left out
    [(cmds, times, n)] = run.per_request(done).values()
    assert cmds == ["optimize", "verify"]
    assert n == 3
    assert times == [1.2, 0.5]
