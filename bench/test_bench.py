"""Tests of the benchmark's own parts: python3 -m pytest bench"""

import json
import sys
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate
import tracer
import workloads


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def test_generator_is_deterministic_per_seed():
    assert workloads.hyper_batch(7) == workloads.hyper_batch(7)
    assert workloads.hyper_batch(7) != workloads.hyper_batch(8)
    assert len(workloads.hyper_batch(7)) == workloads.HYPER_COUNT


def test_generator_respects_caps_and_space():
    hyper, sx = workloads.hyper_space()
    space = {tuple(a) for a in hyper + sx}
    batch = [a for seed in range(1, 6) for a in workloads.hyper_batch(seed)]
    n_sx = 0
    for argv in batch:
        assert tuple(argv) in space
        n, r, d, m = (int(_opt(argv, f)) for f in ("--n", "--r", "--d", "--m"))
        assert n in (2, 3) and d in (1, 2) and m in (d, d + 1)
        assert workloads.rank_k(n, r, d, m) <= workloads.RANK_K_CAP
        if argv[0] == "verify":
            n_sx += 1
            degree = sum(map(int, _opt(argv, "--lam").split(",")))
        else:
            inserts = [a.split("=", 1)[1] for a in argv if a.startswith("--insert=")]
            assert 1 <= len(inserts) <= 2
            assert all(-3 <= int(i.split(":")[0]) <= 3 for i in inserts)
            degree = sum(sum(map(int, i.split(":")[1].split(","))) for i in inserts)
        assert 1 <= degree <= workloads.INSERT_DEGREE_CAP
    assert 0.08 < n_sx / len(batch) < 0.22


def test_every_runnable_instance_is_pinned():
    hyper, sx = workloads.hyper_space()
    pins = gate.load_pins()
    for argv in workloads.KOSZUL_SCAN + workloads.SWEEP_POOL + hyper + sx:
        assert gate.instance_key(argv) in pins


def test_rank_k_matches_the_program():
    from quotbwb.pipeline import QuotSetup, stromme
    for n in (2, 3):
        for r in range(1, n):
            for d in (1, 2):
                for m in (d, d + 1):
                    got = stromme(QuotSetup(n, r, d, m=m)).rank_k
                    assert workloads.rank_k(n, r, d, m) == got
                    assert ((n, r, d, m) in workloads.setups()) == (got <= 24)


PAYLOAD = {"version": "0.1.0", "config": {"command": "hyper", "n": 2},
           "result": {"report": {"euler": "182", "table": {"0": "182"}}},
           "notes": [], "elapsed_ms": 17}
ARGV = ["hyper", "--n", "2", "--jobs", "1"]


def test_gate_accepts_pinned_payload_and_ignores_timer():
    pins = {gate.instance_key(ARGV): gate.payload_hash(json.dumps(PAYLOAD))}
    assert gate.check(ARGV, 0, json.dumps(PAYLOAD, indent=2), pins) == ""
    assert gate.check(ARGV, 0, json.dumps({**PAYLOAD, "elapsed_ms": 9}), pins) == ""
    assert gate.check(ARGV[:-2] + ["--jobs", "2"], 0, json.dumps(PAYLOAD), pins) == ""


def test_gate_flags_perturbed_payload_and_failures():
    pins = {gate.instance_key(ARGV): gate.payload_hash(json.dumps(PAYLOAD))}
    bad = json.loads(json.dumps(PAYLOAD))
    bad["result"]["report"]["table"]["0"] = "183"
    assert "payload hash" in gate.check(ARGV, 0, json.dumps(bad), pins)
    assert gate.check(ARGV, 1, json.dumps(PAYLOAD), pins) == "exit status 1"
    assert gate.check(ARGV, 0, "", pins).startswith("unreadable payload")
    assert gate.check(["hyper", "--n", "3"], 0, json.dumps(PAYLOAD), pins) == "no pinned hash"


def test_gate_requires_matching_worked_example():
    argv = ["examples", "sharp", "--jobs", "2"]
    for matches, want in ((True, ""), (False, "worked example does not match")):
        text = json.dumps({**PAYLOAD, "result": {"matches": matches}})
        pins = {gate.instance_key(argv): gate.payload_hash(text)}
        assert gate.check(argv, 0, text, pins) == want


def _spans(rows):
    """rows: (name id, parent, start, end, truthy), in start order."""
    fields = ("name", "parent", "start", "end", "truthy")
    return {f: array(code, [r[i] for r in rows])
            for i, (f, code) in enumerate(zip(fields, ("h", "l", "q", "q", "b")))}


def test_self_time_on_synthetic_span_tree():
    names = ["a", "b", "c"]
    s = 10 ** 9
    # a [0, 100] has children b [10, 40] and c [50, 90]; c has child b [60, 70];
    # a second root c [200, 210] wraps a recursive c [202, 207].  Self times:
    # a 100-30-40, b 30+10, c (40-10)+(10-5)+5; the inner c adds no cum time.
    rows = [(0, -1, 0, 100 * s, 1), (1, 0, 10 * s, 40 * s, 0), (2, 0, 50 * s, 90 * s, 1),
            (1, 2, 60 * s, 70 * s, 1), (2, -1, 200 * s, 210 * s, 0),
            (2, 4, 202 * s, 207 * s, 1)]
    stats = tracer.summarize(names, _spans(rows))
    assert stats["a"] == {"calls": 1, "truthy": 1, "cum_s": 100.0, "self_s": 30.0}
    assert stats["b"] == {"calls": 2, "truthy": 1, "cum_s": 40.0, "self_s": 40.0}
    assert stats["c"] == {"calls": 3, "truthy": 2, "cum_s": 50.0, "self_s": 40.0}


def test_wrapped_calls_record_parent_links_and_results():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x)
    outer = t.wrap("outer", lambda x: inner(x) + inner(0))
    assert outer(3) == 3
    assert list(t.spans["name"]) == [1, 0, 0]
    assert list(t.spans["parent"]) == [-1, 0, 0]
    stats = tracer.summarize(t.names, t.spans)
    assert stats["inner"]["calls"] == 2 and stats["inner"]["truthy"] == 1
    assert stats["outer"]["self_s"] <= stats["outer"]["cum_s"]
