"""quotbwb benchmark: drives `quotbwb.cli.run` in fresh processes.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

  koszul_scan   one large scan, no insertion, --jobs 1
  hyper_batch   700 seeded hyper / verify sx instances in one process
  sweep_pool    both worked examples and a thm41 twist sweep, --jobs 2

With --trace 0 a run first starts several set-up probes (interpreter plus
`import quotbwb.cli` plus `build_parser()`), then repeats passes, each a
fresh interpreter running every instance of the workload in a closed loop
with one client, until the next pass would end after S seconds (at least
one pass).  It prints the end-to-end metrics.  With --trace 1 it makes
one traced pass instead (sweep_pool: one with --jobs 1 for the layer
numbers and one as given for the parent's wait on the pool) and prints
the per-layer metrics.  Every payload is checked against its pinned hash.
The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import uuid
from pathlib import Path

import gate
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0


def _env() -> dict[str, str]:
    """Child environment without the user's LR cache, which would warm the
    memos and be rewritten by every run."""
    return {k: v for k, v in os.environ.items() if k != "QUOTBWB_CACHE"}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": _commit(), "loadavg": list(os.getloadavg())}


def _spawn(instances, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and check its payloads."""
    work = WORK / uuid.uuid4().hex
    work.mkdir(parents=True)
    try:
        job = work / "job.json"
        job.write_text(json.dumps({"src": str(SRC), "work": str(work),
                                   "instances": instances, "trace": trace}))
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, str(CHILD), str(job)],
                             _env(), file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)],
                             setsid=True)
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.killpg(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.01)
        exit_code = os.waitstatus_to_exitcode(status)
        result_file = work / "result.json"
        if exit_code != 0 or not result_file.exists():
            failures = [[i, f"pass exited with {exit_code}"] for i in range(len(instances))]
            return {"ok": False, "failures": failures}
        res = json.loads(result_file.read_text())
        pins = gate.load_pins()
        failures = []
        for i, (argv, st) in enumerate(zip(instances, res["statuses"])):
            out = work / f"out{i}.json"
            reason = gate.check(argv, st, out.read_text() if out.exists() else "", pins)
            if reason:
                failures.append([i, reason])
        out = {"ok": True, "failures": failures,
               "setup_s": res["ready"] - t0,
               "wall_s": res["last"] - res["first"],
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024,
               "latencies": res["latencies"], "memos": res["memos"]}
        if trace:
            out["layers"] = tracer.summarize(*tracer.load(work))
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _instances(workload: str, seed: int) -> list[list[str]]:
    if workload == "koszul_scan":
        return workloads.KOSZUL_SCAN
    if workload == "hyper_batch":
        return workloads.hyper_batch(seed)
    return workloads.SWEEP_POOL


def _with_jobs(argv, jobs: int) -> list[str]:
    i = argv.index("--jobs")
    return argv[:i + 1] + [str(jobs)] + argv[i + 2:]


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def measure(instances, seconds: int, deadline: float) -> tuple[dict, dict, list]:
    """End-to-end metrics over set-up probes and repeated untraced passes."""
    probes = [_spawn([], False, deadline) for _ in range(SETUP_PROBES)]
    passes, took = [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(_spawn(instances, False, deadline))
        now = time.monotonic()
        took.append(now - t0)
        if not passes[-1]["ok"]:
            break
        nxt = statistics.median(took)
        if now - begin + nxt > seconds or now + nxt > deadline:
            break
    if not all(p["ok"] for p in probes + passes):
        return {}, {}, passes
    lat_ms = [1000 * x for p in passes for x in p["latencies"]]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes + passes), "s"),
        "instance_p50_ms": (statistics.median(lat_ms), "ms"),
        "instance_p90_ms": (_quantile(lat_ms, 0.9), "ms"),
    }
    samples = {"passes": len(passes), "setups": len(probes) + len(passes),
               "instances": len(lat_ms)}
    return metrics, samples, passes


def _layer_metrics(traced: dict, pool_parent: dict) -> dict:
    """Per-layer metrics from a traced pass (and, for a pool workload, the
    parent's e1_page span from the traced pass that used the pool)."""
    def row(name, layers=traced["layers"]):
        return layers.get(name, {"calls": 0, "truthy": 0, "cum_s": 0.0, "self_s": 0.0})

    pair = row("schur.koszul_pair_mult")
    out = {
        "schur.koszul_pair_mult.calls": (pair["calls"], "count"),
        "schur.koszul_pair_mult.nonzero": (pair["truthy"], "count"),
        "schur.koszul_pair_mult.cum_s": (pair["cum_s"], "s"),
        "schur.pair_yield": (pair["truthy"] / pair["calls"] if pair["calls"] else 0.0, "ratio"),
        "bwb.coh_bundle.nonempty": (row("bwb.coh_bundle")["truthy"], "count"),
        "bwb.coh_bundle.cum_s": (row("bwb.coh_bundle")["cum_s"], "s"),
        "pipeline.e1_page.cum_s": (row("pipeline.e1_page", pool_parent["layers"])["cum_s"], "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
    }
    for name in ("schur.skew_expand", "partitions.partition", "partitions.as_weight",
                 "bwb.coh_bundle", "bwb.bwb_dual_weights", "schur.tensor_expand_many",
                 "schur.lr_expand", "pipeline.e1_page", "pipeline.resolve_page"):
        out[f"{name}.calls"] = (row(name)["calls"], "count")
    for name in ("schur.skew_expand", "partitions.partition", "partitions.as_weight",
                 "schur.tensor_expand_many", "schur.lr_expand",
                 "complexes.hyper_cohomology", "cli.run", "pipeline.resolve_page"):
        out[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for memo in ("schur.skew_memo", "schur.lr_expand_memo", "schur.sum_memo",
                 "complexes.scan_memo"):
        out[f"{memo}.entries"] = (traced["memos"][memo], "count")
    return out


def trace_layers(workload: str, instances, deadline: float) -> tuple[dict, list]:
    """Per-layer metrics from traced passes."""
    if workload == "sweep_pool":
        traced = _spawn([_with_jobs(a, 1) for a in instances], True, deadline)
        pool = _spawn(instances, True, deadline) if traced["ok"] else traced
        passes = [traced, pool]
    else:
        traced = pool = _spawn(instances, True, deadline)
        passes = [traced]
    if not all(p["ok"] for p in passes):
        return {}, passes
    return _layer_metrics(traced, pool), passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("koszul_scan", "hyper_batch", "sweep_pool"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "quotbwb" / "cli.py").is_file():
        print(f"error: no quotbwb sources under {SRC}", file=sys.stderr)
        return 2
    machine = _machine()
    instances = _instances(args.workload, args.seed)
    if args.trace:
        metrics, passes = trace_layers(args.workload, instances, deadline)
        samples = {"passes": len(passes)}
    else:
        metrics, samples, passes = measure(instances, args.seconds, deadline)
    attempted = len(instances) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    if not metrics:
        print("error: a pass did not finish; first failures: "
              f"{failures[:3]}", file=sys.stderr)
        return 1
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "samples": samples,
              "instances": instances, "failures": failures, "metrics": metrics_json,
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes]}
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload} seed {args.seed}: nproc {machine['nproc']}, "
          f"python {machine['python']}, commit {machine['commit']}, "
          f"loadavg {machine['loadavg'][0]:.2f}")
    print(f"samples: {samples}; details in {out_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for i, reason in failures[:10]:
        print(f"  failed: {gate.instance_key(instances[i])}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
