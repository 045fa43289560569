"""Regenerate pins.json: the payload hash of every instance a workload can run.

Usage (from the repository root): python3 bench/pin.py

Pins are taken once, on a commit whose payloads are trusted; a later
commit must reproduce them byte for byte (apart from gate.VOLATILE_KEYS).
Any instance that exits non-zero aborts the pinning.
"""

import json
import sys
import tempfile
from pathlib import Path

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import quotbwb.cli as cli
    hyper, sx = workloads.hyper_space()
    pins = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out.json"
        for argv in workloads.KOSZUL_SCAN + workloads.SWEEP_POOL + hyper + sx:
            status = cli.run(argv + ["--output", str(out)])
            if status != 0:
                raise SystemExit(f"{argv} exited with {status}; nothing pinned")
            pins[gate.instance_key(argv)] = gate.payload_hash(out.read_text())
    gate.PINS_FILE.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} instances in {gate.PINS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
