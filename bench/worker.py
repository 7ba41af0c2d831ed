"""Benchmark worker: one process, one client, a closed loop of CLI requests.

Run as ``python3 bench/worker.py JOB.json`` from the checkout root; the
parent (``bench/run.py``) writes the job and reads the result file named
in it.  Every request goes through ``rankgames.cli.main(argv)`` in this
process with stdout captured, so it includes game-file parsing, solving,
certification and strategy writing, but no interpreter start-up.  Each
request is issued only after the previous one returns.

Job modes:

* ``run``: set up (import, generate, write files) several times and time
  each; then issue the workload's requests for about ``seconds``, in
  passes over the same instances (``timed_passes``).  With ``trace`` each
  instance runs once untraced and once traced instead.
* ``replay``: issue the requests of the given instances once, with no
  window, and report their outputs and the sizes of the strategies they
  wrote (determinism check, strategy sizes, guard test).

A runaway guard bounds every request: a wall-clock limit (SIGALRM) and an
address-space limit (RLIMIT_AS) for the whole worker.  A request that hits
either is recorded as failed and the loop goes on.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import signal
import sys
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = ("cli", "gen", "fileformat", "objectives", "ranked", "resilience", "rrcost")
PROBE_MAX_AGE_S = 0.05  # a request older than this probe timing gets a new one


def host_probe() -> float:
    """Wall time of a fixed piece of pure-Python work that uses no
    rankgames code: dict, set and tuple building, sorting and a JSON round
    trip, the operations the program spends its time in.

    A shared host switches between a fast and a slow state (the slow one
    about 1.6 times slower) for seconds to minutes at a time.  The probe's time moves
    with that state only, so ``run.py`` divides each request's time by the
    probe timed just before it (``FreshProbe``).  The cyclic GC is off
    while it runs, so the program's heap does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    counts, seen = {}, set()
    for i in range(1500):
        k = (i * 7919) % 1499
        counts[k] = counts.get(k, 0) + 1
        seen.add((k, i & 7))
    order = sorted(seen)
    json.loads(json.dumps({"order": order[:500], "counts": list(counts.items())}))
    t = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t


class FreshProbe:
    """The host probe's time, timed again when the last timing is older
    than ``PROBE_MAX_AGE_S``: before every request of a long instance,
    once per few instances of millisecond ones."""

    def __init__(self):
        self.value = 0.0
        self.at = None

    def __call__(self) -> float:
        if self.at is None or time.perf_counter() - self.at > PROBE_MAX_AGE_S:
            self.value = host_probe()
            self.at = time.perf_counter()
        return self.value


class RequestTimeout(BaseException):
    """Raised inside a request that outlived its wall-clock limit.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


class Guard:
    """Per-request wall-clock limit via SIGALRM."""

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, _signum, _frame):
        if self.armed:
            self.armed = False
            raise RequestTimeout()

    @contextlib.contextmanager
    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def import_rankgames(src: str):
    """Import the package from ``src`` afresh and return its modules."""
    for name in [m for m in sys.modules if m == "rankgames" or m.startswith("rankgames.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("rankgames")
    origin = os.path.realpath(pkg.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"rankgames imported from {origin}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"rankgames.{m}")
                                    for m in MODULES})


def run_request(rk, guard: Guard, argv) -> dict:
    """One CLI call; returns its exit code, stdout and wall time, or the
    reason it failed."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with guard.arm(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rk.cli.main(list(argv))
    except RequestTimeout:
        error = f"timeout after {guard.limit_s} s"
    except MemoryError:
        error = "address-space limit reached"
    except Exception as exc:  # a crash in the program is a failed request
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-500:],
            "wall": wall, "error": error}


def run_instance(rk, guard: Guard, inst: wl.Instance, probe=None) -> list:
    """All requests of one instance, checked as they go; returns one
    record per request issued.  With ``probe`` (a ``FreshProbe``), each
    record also holds the probe time current when its request began."""
    records = []
    plan = wl.plan(inst)
    reply = None
    while True:
        try:
            req = plan.send(reply) if records else next(plan)
        except StopIteration:
            return records
        except wl.CheckFailed as exc:
            records[-1]["error"] = str(exc)
            return records
        host = probe() if probe is not None else None
        res = run_request(rk, guard, req.argv)
        res["argv"] = list(req.argv)
        if probe is not None:
            res["probe"] = host
        records.append(res)
        if res["error"] is None and res["code"] not in req.codes:
            res["error"] = f"exit code {res['code']}, expected one of {list(req.codes)}"
        if res["error"] is not None:
            return records
        reply = (res["code"], res["stdout"])


def _digest(rec: dict) -> dict:
    """What the parent keeps of a request: no stdout text, only its hash."""
    stdout = rec.pop("stdout")
    rec["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    return rec


def _strategy_sizes(rec: dict) -> list:
    """(memory states, bytes) of the strategy file a request wrote."""
    argv = rec["argv"]
    if "--out" not in argv or rec["error"] is not None:
        return []
    path = argv[argv.index("--out") + 1]
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [[len(doc["memory"]["states"]), os.path.getsize(path)]]


def timed_passes(rk, guard: Guard, instances, seconds: float, fam: dict) -> list:
    """Time every request ``fam["passes"]`` times, a pass apart.

    Pass 0 runs whole batches of instances, in order, for
    ``seconds / passes`` and so fixes how many take part; later passes
    repeat those, so the P timings of a request lie seconds apart.  Each
    request records the host probe's time (``FreshProbe``).  Stops early
    past three times the window.
    """
    passes = fam["passes"]
    done = []
    probe = FreshProbe()
    t0 = time.perf_counter()
    k = 0
    while k < len(instances) and (k % fam["batch"]
                                  or time.perf_counter() - t0 < seconds / passes):
        recs = run_instance(rk, guard, instances[k], probe)
        done.append({"index": k, "pass": 0, "records": [_digest(r) for r in recs]})
        k += 1
    for p in range(1, passes):
        for idx in range(k):
            if time.perf_counter() - t0 > 3 * seconds:
                return done
            recs = run_instance(rk, guard, instances[idx], probe)
            done.append({"index": idx, "pass": p, "records": [_digest(r) for r in recs]})
    return done


def traced_loop(rk, guard: Guard, instances, seconds: float):
    """Run each instance untraced, then traced, until ``seconds`` pass."""
    tracer = Tracer()
    done = []
    traced_wall = untraced_wall = 0.0
    deadline = time.perf_counter() + seconds
    idx = 0
    while time.perf_counter() < deadline:
        inst = instances[idx % len(instances)]
        recs = run_instance(rk, guard, inst)
        untraced_wall += sum(r["wall"] for r in recs)
        tracer.install()
        try:
            traced = run_instance(rk, guard, inst)
        finally:
            tracer.uninstall()
        traced_wall += sum(r["wall"] for r in traced)
        done.append({"index": idx % len(instances), "pass": idx // len(instances),
                     "records": [_digest(r) for r in recs],
                     "traced": [_digest(r) for r in traced]})
        idx += 1
    return done, tracer.report(len(done), traced_wall, untraced_wall), tracer.absent


def do_run(job: dict) -> dict:
    setup, setup_probes = [], []
    for _ in range(job["setup_reps"]):
        setup_probes.append(host_probe())
        t0 = time.perf_counter()
        rk = import_rankgames(job["src"])
        instances = wl.build(job["workload"], rk, job["seed"], job["work"])
        setup.append(time.perf_counter() - t0)
    guard = Guard(job["limit_s"])
    result = {"setup_s": setup, "setup_probes": setup_probes,
              "instances": [inst.to_json() for inst in instances]}
    if job["trace"]:
        result["done"], result["per_layer"], result["absent"] = traced_loop(
            rk, guard, instances, job["seconds"])
    else:
        result["done"] = timed_passes(rk, guard, instances, job["seconds"],
                                      wl.FAMILIES[job["workload"]])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def do_replay(job: dict) -> dict:
    rk = import_rankgames(job["src"])
    guard = Guard(job["limit_s"])
    done = []
    for doc in job["instances"]:
        recs = run_instance(rk, guard, wl.Instance.from_json(doc))
        sizes = [s for r in recs for s in _strategy_sizes(r)]
        done.append({"records": [_digest(r) for r in recs], "sizes": sizes})
    return {"done": done,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    limit = job["as_limit_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    result = do_run(job) if job["mode"] == "run" else do_replay(job)
    result["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
