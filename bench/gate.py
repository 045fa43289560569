"""Correctness gate: canonical payload hashes checked against pinned ones."""

import hashlib
import json
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")
# Envelope keys that may differ between correct runs: the timer, and the
# counters block ROADMAP allows beside an otherwise byte-identical payload.
VOLATILE_KEYS = ("elapsed_ms", "stats")


def instance_key(argv) -> str:
    """Pin key of an instance: its argv without the worker count."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--jobs":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def payload_hash(text: str) -> str:
    """sha256 of the envelope without volatile keys, with sorted keys."""
    envelope = json.loads(text)
    for k in VOLATILE_KEYS:
        envelope.pop(k, None)
    canon = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_pins() -> dict[str, str]:
    return json.loads(PINS_FILE.read_text())


def check(argv, status, text, pins) -> str:
    """Empty string when the instance passed, else why it failed."""
    if status != 0:
        return f"exit status {status}"
    try:
        got = payload_hash(text)
    except (TypeError, ValueError) as exc:
        return f"unreadable payload: {exc}"
    want = pins.get(instance_key(argv))
    if want is None:
        return "no pinned hash"
    if got != want:
        return f"payload hash {got[:12]} != pinned {want[:12]}"
    if argv[0] == "examples" and json.loads(text)["result"].get("matches") is not True:
        return "worked example does not match"
    return ""
