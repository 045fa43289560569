"""One measured pass: a fresh interpreter runs a list of CLI instances.

Usage: python3 child.py JOB_FILE

The job file names the source tree, the argv list, a work directory and
whether to trace.  The pass imports `quotbwb.cli`, builds the parser
(the set-up), then runs each instance through `quotbwb.cli.run` in a
closed loop, each writing its payload to its own file.  It writes
`result.json` into the work directory; payloads are checked by the parent.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import quotbwb.cli as cli
    from quotbwb import complexes, schur
    cli.build_parser()
    ready = time.monotonic()
    work = Path(job["work"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    statuses, latencies = [], []
    first = time.monotonic()
    for i, argv in enumerate(job["instances"]):
        t0 = time.monotonic()
        try:
            status = cli.run(argv + ["--output", str(work / f"out{i}.json")])
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            status = "raised"
        latencies.append(time.monotonic() - t0)
        statuses.append(status)
    last = time.monotonic()
    memos = {"schur.skew_memo": len(schur._SKEW_CACHE),
             "schur.lr_expand_memo": len(schur._LR_EXPAND_CACHE),
             "schur.sum_memo": len(schur._SUM_CACHE),
             "complexes.scan_memo": len(complexes._SCAN_CACHE)}
    if tracer is not None:
        tracer.dump(work)
    (work / "result.json").write_text(json.dumps({
        "ready": ready, "first": first, "last": last,
        "statuses": statuses, "latencies": latencies, "memos": memos}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
