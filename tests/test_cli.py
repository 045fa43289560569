import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quotbwb

from quotbwb import pipeline
from quotbwb.cli import build_parser, main, run
from quotbwb.partitions import InconsistencyError


def run_json(capsys, argv):
    status = run(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


class TestBasicCommands:
    def test_lr(self, capsys):
        status, payload = run_json(capsys, ["lr", "--alpha", "2,1",
                                            "--beta", "2,1", "--gamma", "3,2,1"])
        assert status == 0
        assert payload["result"]["coefficient"] == "2"

    def test_dim(self, capsys):
        status, payload = run_json(capsys, ["dim", "--weight", "1,1,1,1,1,1",
                                            "--n", "10"])
        assert status == 0 and payload["result"]["dim"] == "210"
        status, payload = run_json(capsys, ["dim", "--weight", "1,0,0,-1",
                                            "--n", "4"])
        assert payload["result"]["dim"] == "15"

    def test_index(self, capsys):
        status, payload = run_json(capsys, ["index", "--chi", "6,6,2,2,2,2,2,2",
                                            "--k", "4"])
        assert payload["result"] == {"index": 2, "degree": 8, "vanishes": False}

    def test_bwb(self, capsys):
        status, payload = run_json(capsys, ["bwb", "--k", "1", "--N", "2",
                                            "--b", "-3"])
        assert payload["result"]["table"] == {"1": "2"}

    def test_bwb_summand_detail(self, capsys):
        status, payload = run_json(
            capsys, ["bwb", "--k", "4", "--N", "12",
                     "--b=-2,-2,-2,-2,-2,-2,-6,-6"])
        assert payload["result"]["table"] == {"8": "1"}
        assert payload["result"]["summands"] == [
            {"degree": 8, "dim": "1",
             "dual": "-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2,-2",
             "gamma": "2,2,2,2,2,2,2,2,2,2,2,2"}]

    # payloads of the version before `bwb` summed its table from its summand
    # loop: negative weights, several weights a side, zero bundles
    BWB_PAYLOADS = [
        (["--k", "2", "--N", "5", "--a=-1,-2", "--b=0,0,-3"],
         {"summands": [{"degree": 1, "dim": "50", "dual": "0,0,-2,-2,-2",
                        "gamma": "2,2,2,0,0"}], "table": {"1": "50"}}),
        (["--k", "2", "--N", "5", "--a", "1", "--a", "1,1", "--b", "2",
          "--b=1,0,-1"],
         {"summands": [{"degree": 1, "dim": "1", "dual": "1,1,1,1,1",
                        "gamma": "-1,-1,-1,-1,-1"}], "table": {"1": "1"}}),
        (["--k", "2", "--N", "4", "--a", "1,1,1", "--b", "1"],
         {"summands": [], "table": {}}),
        (["--k", "2", "--N", "4", "--b", "1", "--b", "1,1,1"],
         {"summands": [], "table": {}}),
        (["--k", "3", "--N", "6", "--a", "2,1", "--a=0,0,-1", "--b", "1",
          "--b", "1", "--b", "1"],
         {"summands": [{"degree": 0, "dim": "6", "dual": "1,1,1,1,1,0",
                        "gamma": "0,-1,-1,-1,-1,-1"},
                       {"degree": 1, "dim": "168", "dual": "2,1,1,1,0,0",
                        "gamma": "0,0,-1,-1,-1,-2"},
                       {"degree": 1, "dim": "240", "dual": "2,1,1,1,1,-1",
                        "gamma": "1,-1,-1,-1,-1,-2"}],
          "table": {"0": "6", "1": "408"}}),
        (["--k", "2", "--N", "6", "--a=1,-1", "--a=2,-2", "--b=-1,-1,-1,-2",
          "--b", "1"],
         {"summands": [{"degree": 3, "dim": "210", "dual": "0,0,0,0,-1,-3",
                        "gamma": "3,1,0,0,0,0"}], "table": {"3": "210"}}),
        (["--k", "0", "--N", "3", "--b=0,-1,-2"],
         {"summands": [{"degree": 0, "dim": "8", "dual": "0,-1,-2",
                        "gamma": "2,1,0"}], "table": {"0": "8"}}),
        # a trailing zero is stripped, so three entries fit on rank 2
        (["--k", "2", "--N", "4", "--a", "2,1,0", "--b", "1"],
         {"summands": [{"degree": 1, "dim": "1", "dual": "1,1,1,1",
                        "gamma": "-1,-1,-1,-1"}], "table": {"1": "1"}}),
    ]

    @pytest.mark.parametrize("argv,result", BWB_PAYLOADS)
    def test_bwb_payloads_unchanged(self, capsys, argv, result):
        status, payload = run_json(capsys, ["bwb"] + argv)
        assert status == 0
        assert payload["result"] == result
        assert payload["notes"] == [] and payload["config"]["command"] == "bwb"

    def test_stromme(self, capsys):
        status, payload = run_json(capsys, ["stromme", "--n", "2", "--r", "1",
                                            "--d", "2", "--m", "5"])
        assert payload["result"]["gr1"] == {"k": 3, "N": 10, "quotient_rank": 7}
        assert payload["result"]["gr2"] == {"k": 4, "N": 12, "quotient_rank": 8}

    def test_koszul(self, capsys):
        status, payload = run_json(capsys, ["koszul", "--n", "2", "--r", "1",
                                            "--d", "2", "--m", "5", "--t", "1"])
        assert payload["result"]["terms"] == [
            {"mu": "1", "sigma": "1", "mult": "2"}]

    def test_scan_and_euler(self, capsys):
        status, payload = run_json(capsys, ["scan", "--n", "2", "--r", "1",
                                            "--d", "1", "--m", "1"])
        assert payload["result"]["report"]["table"] == {"0": "1"}
        status, payload = run_json(capsys, ["euler", "--n", "2", "--r", "1",
                                            "--d", "1", "--m", "2",
                                            "--b1", "1", "--b2", "1"])
        assert payload["result"]["euler"] == "24"

    def test_scan_too_long_beside_koszul_partition(self, capsys):
        # (1, 1) does not fit on A1 of rank k1 = 1: the zero bundle, an
        # empty page and exit 0
        status, payload = run_json(capsys, ["scan", "--n", "2", "--r", "1",
                                            "--d", "1", "--m", "2", "--a1", "1,1"])
        assert status == 0
        assert payload["result"] == {
            "e1": {"entries": []},
            "report": {"degenerate": True, "euler": "0", "exact": True,
                       "notes": [], "table": {}}}

    def test_ext(self, capsys):
        status, payload = run_json(capsys, ["ext", "--n", "3", "--r", "1",
                                            "--d", "1", "--m", "2",
                                            "--nu", "1", "--lam", "1"])
        assert status == 0 and payload["result"]["table"] == {"0": "1"}

    def test_closed_form_and_hyper(self, capsys):
        base = ["--n", "2", "--r", "1", "--d", "1"]
        status, payload = run_json(capsys, ["closed-form", *base,
                                            "--insert=-2:1"])
        assert payload["result"]["table"] == {"1": "2"}
        status, payload = run_json(capsys, ["hyper", *base, "--insert=-2:1"])
        assert payload["result"]["report"]["table"] == {"1": "2"}

    def test_table_format(self, capsys):
        argv = ["lr", "--alpha", "2,1", "--beta", "2,1", "--gamma", "3,2,1",
                "--format", "table"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("elapsed_ms: ")
        assert lines[:-1] == ["version: 0.1.0", "config:", "  command: lr",
                              "  alpha: 2,1", "  beta: 2,1", "  gamma: 3,2,1",
                              "result:", "  coefficient: 2", "notes:"]


# One small instance per subcommand, per `verify` statement and per worked
# example: (argv, exit status, sha256 of the sorted-key envelope without
# elapsed_ms), recorded at commit 47f7cbc.
PINNED_PAYLOADS = [
    ("lr --alpha 2,1 --beta 2,1 --gamma 3,2,1", 0,
     "ab7a72265bd955a924a1a6ae05a7a5687d05443e7a7757e1a8880d798994b2f6"),
    ("dim --weight 1,0,-1 --n 3", 0,
     "11cce7c6ff661d3cd256072fced74080a6176a61378af822cca8b20816d6efa5"),
    ("index --chi 6,6,2,2,2,2,2,2 --k 4", 0,
     "eeb53e5f2dba05f3abe1cff16ec0416ade16b633381a4a29b85cf26e990e70fd"),
    ("bwb --k 2 --N 5 --a=-1,-2 --b=0,0,-3", 0,
     "0d43395c9e2b124c17c3a3d379ce3db59fdd8c883ecc3226d29db452b9221aba"),
    ("stromme --n 2 --r 1 --d 1 --m 2", 0,
     "c9cd94f85e0bb313bc7e7a42b2c9828c738409ae3255810d7372b106ddfda7d0"),
    ("koszul --n 2 --r 1 --d 2 --m 3 --t 2", 0,
     "1b92d62ad06ffc42f1232a32f2872901c2a60cdc50de965ef810b0827df96d5b"),
    ("scan --n 2 --r 1 --d 1 --m 3 --b1 1,1", 0,
     "e7e5ec29dedb14d261b0a4330dc3659dc9dc715399c7e091aa8cf127c9571566"),
    ("euler --n 2 --r 1 --d 1 --m 2 --b1 1 --b2 1", 0,
     "73c20a6caaa7d17e4212cd554fb4308f4d926f8eb40169d1abc0402204e37d81"),
    ("ext --n 3 --r 1 --d 1 --m 2 --nu 1 --lam 1", 0,
     "4b39a212b25e1d4cfe3521c19c6766bb28d1e4768da8b84e873d3cc74e549216"),
    ("closed-form --n 2 --r 1 --d 1 --insert=-2:1 --insert=1:1", 0,
     "ee0d0380b83ac93f26a279facc0d35d857678d5e30fa26262a929166898f19c3"),
    ("hyper --n 2 --r 1 --d 1 --m 2 --insert=-2:1 --insert=1:1", 0,
     "a7fd751b229e531f2cec920c32a77d484a85be40eaba253dd3a49daffecd96a4"),
    ("verify thm41 --n 2 --r 1 --d 1 --m 2 --m-max 3 --eta 1 --rho 1", 0,
     "85530754b890ec308db26c86aec6025595cd4c72a3f9297e8fca4063ea77ae99"),
    ("verify prop47 --n 2 --r 1 --d 1 --m 1 --m-max 2 --eta 1 --rho 1", 0,
     "c6b213b1b9aa0208ac9e521597baf7cd51fab8e6268f90e6e972d4ffd3444275"),
    ("verify ext --n 3 --r 1 --d 1 --m 2 --nu 1 --lam 1", 0,
     "d790f70272f68b7e51007d692dd755b0881f118477447324ffc0baa751a6fe1d"),
    ("verify cor14 --n 2 --r 1 --d 1 --insert=-2:1", 0,
     "430209e07155066ba69fb07a0a06ff8bce6ebbe24d24b39c06072ee5fe3faf57"),
    ("verify thm57 --n 2 --r 1 --d 1 --insert=1:1 --insert=2:1,1", 0,
     "c934383db38af40b5ddeefa64ef5ba6fd912852f90b577a5b5914067f60ae487"),
    ("verify sx --n 2 --r 1 --d 1 --lam 2,1", 0,
     "abb4b52da45c5e386c43947add86766c3b84d401acfc845c978fdaaaca52da71"),
    ("examples sharp", 0,
     "25b775bc96a3ad47f4db83865391fbf7f2a7811d167d22ac996d38f7902c1d96"),
    ("examples sym2", 0,
     "5e02c40e0f3ed3e8e54563bc214046db5941c854f842804e6ca50067ff5f7a88"),
    # hyper cases the bench pins miss (every bench hyper argv is
    # quotient-side with a trivial splitting), recorded at commit 0ce8afc:
    # sub-side only and inexact, mixed sides, sub-side only and exact, and
    # an insert with no theta route (V(0) has h^0 and h^1) in both orders
    ("hyper --n 2 --r 1 --d 1 --m 2 --insert=-2:2,1:sub --insert=-2:1:sub", 0,
     "e3678127610e65dd68c23f2086fb294a04160f1ad9b0a107aacfa265eabcfa11"),
    ("hyper --n 2 --r 1 --d 1 --m 2 --insert=-2:2,1:sub --insert=-2:1", 0,
     "32bd062f8a7375f1e7efd1b684eea9da688c32d6d3964c1d95f7c3e151cd42ab"),
    ("hyper --n 2 --r 1 --d 1 --m 2 --insert=1:2,1:sub --insert=3:1:sub", 0,
     "811d5afbce0c5f1c4d961b34b4702a47c69c542cf1137a095c296b7ec1ef131e"),
    ("hyper --n 2 --r 1 --d 1 --b 0,2 --insert=0:1 --insert=4:1", 0,
     "266363513e677e851458214932d52d2ff98687bd7513986ae482ced6fae5549c"),
    ("hyper --n 2 --r 1 --d 1 --b 0,2 --insert=4:1 --insert=0:1", 0,
     "6b832bc7e3eb5a5618c34e92cfde744a544a7075df17a4501a454ed13ec9c775"),
    ("verify sx --n 2 --r 1 --d 1 --b 0,2 --lam 2,1", 0,
     "896ba52d6050017da92fd6c8c84a2ef909eca1cda8eb90e7a01b9fb7dae0c89d"),
    # two pages of the sharp listing, recorded at commit 9948d6d: t = 24
    # (2942 terms, most pairs of the boxes nonzero) and t = 38 (297 terms)
    ("koszul --n 2 --r 1 --d 2 --m 5 --t 24", 0,
     "3262c649d851ae1a7f30b1cc0972c027cea9117b42afddca157fcd3949ddf877"),
    ("koszul --n 2 --r 1 --d 2 --m 5 --t 38", 0,
     "157d9c2def2baaaec9ee104ee2d253e81eba7177cfbc07210f7b7c382c90f125"),
]


@pytest.mark.parametrize("line,status,digest", PINNED_PAYLOADS,
                         ids=[line for line, _, _ in PINNED_PAYLOADS])
def test_pinned_payload(capsys, line, status, digest):
    got, payload = run_json(capsys, line.split())
    payload.pop("elapsed_ms")
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert (got, hashlib.sha256(canon.encode()).hexdigest()) == (status, digest)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """A module of the benchmark harness, loaded from its file without
    importing the bench package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_argvs():
    workloads = load_bench("workloads")
    hyper, sx = workloads.hyper_space()
    return workloads.KOSZUL_SCAN + workloads.SWEEP_POOL + hyper + sx


def test_bench_argvs_parse_to_handlers():
    # every benchmark instance parses and reaches a handler
    argvs = bench_argvs()
    assert len(argvs) == 1920
    parser = build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        assert callable(args.func), argv


def test_bench_argvs_reproduce_pins(capsys):
    # every benchmark instance, run in one process, passes the benchmark's
    # own correctness gate against its pinned payload hash
    gate = load_bench("gate")
    pins = gate.load_pins()
    failed = []
    for argv in bench_argvs():
        status = run(argv)
        why = gate.check(argv, status, capsys.readouterr().out, pins)
        if why:
            failed.append((" ".join(argv), why))
    assert not failed, (len(failed), failed[:5])


SETUP = {"--n": "2", "--r": "1", "--d": "1", "--m": "2"}
UNSWEPT = {"ext": ["--nu", "1", "--lam", "1"], "cor14": ["--insert=-2:1"],
           "thm57": ["--insert=1:1"], "sx": ["--lam", "2,1"]}
SETUP_COMMANDS = {"stromme": [], "koszul": ["--t", "1"], "scan": [], "euler": [],
                  "ext": ["--nu", "1", "--lam", "1"], "hyper": ["--insert", "1:1"],
                  "verify": ["thm41", "--eta", "1", "--rho", "1"]}


def negative_option_argvs():
    """Each integer option of each subcommand set to -1, one per argv."""
    def setup(option, keys=tuple(SETUP)):
        return [x for k in keys for x in (k, "-1" if k == option else SETUP[k])]

    for command, extra in SETUP_COMMANDS.items():
        for option in SETUP:
            yield [command, *setup(option), *extra]
    for option in ("--n", "--r", "--d"):
        yield ["closed-form", *setup(option, ("--n", "--r", "--d")), "--insert", "1:1"]
    yield ["dim", "--weight", "1", "--n", "-1"]
    yield ["index", "--chi", "1,1", "--k", "-1"]
    yield ["bwb", "--k", "-1", "--N", "3"]
    yield ["bwb", "--k", "1", "--N", "-1"]
    yield ["koszul", *setup(None), "--t", "-1"]
    yield ["verify", "thm41", *setup(None), "--m-max", "-1", "--eta", "1", "--rho", "1"]
    # a statement that does not sweep takes no --m-max at all
    for statement, extra in UNSWEPT.items():
        yield ["verify", statement, *setup(None), "--m-max", "-1", *extra]
    yield ["scan", *setup(None), "--jobs", "-1"]


class TestValidationAndExitCodes:
    @pytest.mark.parametrize("argv", negative_option_argvs(), ids=" ".join)
    def test_negative_integer_option(self, capsys, argv):
        # a negative count, size, twist or index is bad input (exit 1)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_sub_insert_has_no_closed_form(self, capsys):
        # the closed form covers quotient-side inserts only: a ':sub' insert
        # is bad input, not a contradicted statement (exit 2)
        for command in (["verify", "cor14"], ["closed-form"]):
            assert run([*command, "--n", "2", "--r", "1", "--d", "1",
                        "--insert=1:1:sub"]) == 1, command
            captured = capsys.readouterr()
            assert captured.err == ("error: the closed form covers quotient-side "
                                    "inserts only, not ':sub'\n")
            assert captured.out == ""

    def test_bad_partition(self, capsys):
        assert run(["lr", "--alpha", "1,2", "--beta", "1", "--gamma", "2,1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys, monkeypatch):
        # exit 2 is reserved for a contradicted statement
        assert run(["scan", "--n", "x", "--r", "1", "--d", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: quotbwb scan")
        assert "quotbwb scan: error: argument --n: invalid int value: 'x'" in err
        assert run(["lr", "--alpha", "1", "--beta", "1", "--gamma", "2",
                    "--cache", "f"]) == 1
        assert "unrecognized arguments: --cache f" in capsys.readouterr().err
        assert run([]) == 1
        assert "required: command" in capsys.readouterr().err
        monkeypatch.setattr(sys, "argv", ["quotbwb", "dim", "--n", "2"])
        assert main() == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as help_exit:
            run(["scan", "--help"])
        assert help_exit.value.code == 0
        assert "usage: quotbwb scan" in capsys.readouterr().out

    def test_internal_contradiction_exits_3(self, capsys, monkeypatch):
        def contradicted(cells):
            raise InconsistencyError("page contradicts itself")

        monkeypatch.setattr(pipeline, "resolve_page", contradicted)
        assert run(["scan", "--n", "2", "--r", "1", "--d", "1", "--m", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: page contradicts itself\n"
        assert captured.out == ""
        # any ArithmeticError escaping a command is internal, not a usage error
        monkeypatch.setattr(pipeline, "resolve_page",
                            lambda cells: 1 // 0)
        assert run(["scan", "--n", "2", "--r", "1", "--d", "1", "--m", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_misordered_weight(self, capsys):
        assert run(["dim", "--weight", "3,5,-1", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: invalid weight '3,5,-1': "
                                "not weakly decreasing: (3, 5, -1)\n")
        assert captured.out == ""

    def test_bad_insert_side(self, capsys):
        assert run(["hyper", "--n", "2", "--r", "1", "--d", "1",
                    "--insert=1:1:foo"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_bad_setup(self, capsys):
        assert run(["stromme", "--n", "2", "--r", "1", "--d", "2",
                    "--m", "1"]) == 1

    def test_negative_index_k(self, capsys):
        # a negative k is bad input, not an internal contradiction (exit 3)
        # nor a degree (exit 0)
        for chi, k in (("1,1", "-5"), ("2,-1", "-1")):
            assert run(["index", "--chi", chi, "--k", k]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: --k {k} is negative\n"
            assert captured.out == ""

    def test_negative_counts_are_bad_input(self, capsys):
        # --jobs selects nothing, but a count below 1 is still bad input
        for argv, message in (
                (["scan", "--n", "2", "--r", "1", "--d", "1", "--m", "3",
                  "--jobs", "-2"], "--jobs -2 is below 1"),
                (["lr", "--alpha", "1", "--beta", "1", "--gamma", "2",
                  "--jobs", "0"], "--jobs 0 is below 1"),
                (["dim", "--weight", "1", "--n", "-3"], "--n -3 is negative")):
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
        status, payload = run_json(capsys, ["dim", "--weight", "1", "--n", "0"])
        assert status == 0 and payload["result"]["dim"] == "0"

    def test_closed_form_setup_checked(self, capsys):
        # the setup passes through QuotSetup, as for hyper
        for setup in (["--n", "2", "--r", "5", "--d", "1"],
                      ["--n", "2", "--r", "1", "--d", "1", "--b", "1,0,3"]):
            for command in ("closed-form", "hyper"):
                assert run([command, *setup, "--insert", "1:1"]) == 1, \
                    (command, setup)
                captured = capsys.readouterr()
                assert captured.err.startswith("error: ") and captured.out == ""

    def test_verify_pass_and_vacuous(self, capsys):
        status, payload = run_json(capsys, ["verify", "thm41", "--n", "2",
                                            "--r", "1", "--d", "1", "--m", "2",
                                            "--eta", "1", "--rho", "1"])
        assert status == 0 and payload["result"]["verdict"]["matches"] is True
        # first-part hypothesis violated: vacuous, still exit 0
        status, payload = run_json(capsys, ["verify", "thm41", "--n", "3",
                                            "--r", "1", "--d", "1", "--m", "1",
                                            "--eta", "0,-2", "--rho", ""])
        assert status == 0
        assert payload["result"]["verdict"]["hypotheses_hold"] is False

    def test_verify_m_window_sweep(self, capsys):
        status, payload = run_json(capsys, ["verify", "thm41", "--n", "2",
                                            "--r", "1", "--d", "1", "--m", "2",
                                            "--m-max", "3",
                                            "--eta", "1", "--rho", "1"])
        assert status == 0
        result = payload["result"]
        assert result["window"] == [2, 3] and result["stable_from"] == 2
        assert result["verdicts"]["3"]["report"]["table"] == {"0": "48"}

    def test_window_checked_before_weights(self, capsys):
        # a bad --m-max is reported before a bad --eta of the same sweep
        for statement in ("thm41", "prop47"):
            assert run(["verify", statement, "--n", "2", "--r", "1", "--d", "1",
                        "--m", "2", "--m-max", "1", "--eta", "3,5"]) == 1
            assert capsys.readouterr().err == (
                "error: --m-max 1 below the starting twist 2\n")

    def test_m_max_only_on_swept_statements(self, capsys):
        # a window on a statement that does not sweep would be echoed in
        # the config while only twist m runs: bad input, even when valid
        for statement, extra in UNSWEPT.items():
            assert run(["verify", statement, "--n", "2", "--r", "1", "--d", "1",
                        "--m", "2", "--m-max", "3", *extra]) == 1, statement
            captured = capsys.readouterr()
            assert captured.err == "error: --m-max applies only to thm41 and prop47\n"
            assert captured.out == ""

    def test_verify_sx(self, capsys):
        status, payload = run_json(capsys, ["verify", "sx", "--n", "2",
                                            "--r", "1", "--d", "1",
                                            "--lam", "1"])
        assert status == 0 and payload["result"]["hypotheses_hold"] is True

    def test_verify_cor14(self, capsys):
        status, payload = run_json(capsys, ["verify", "cor14", "--n", "2",
                                            "--r", "1", "--d", "1",
                                            "--insert=-2:1"])
        assert status == 0


class TestDeterminismAndCache:
    def test_jobs_do_not_change_payload(self, capsys, tmp_path):
        argv = ["scan", "--n", "3", "--r", "1", "--d", "1", "--m", "1",
                "--b1", "1"]
        _, p1 = run_json(capsys, argv + ["--jobs", "1"])
        _, p2 = run_json(capsys, argv + ["--jobs", "2"])
        p1.pop("elapsed_ms")
        p2.pop("elapsed_ms")
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_payload_round_trip(self, capsys):
        _, payload = run_json(capsys, ["scan", "--n", "2", "--r", "1",
                                       "--d", "1", "--m", "1"])
        text = json.dumps(payload, indent=2, sort_keys=True)
        assert json.loads(text) == payload

    @pytest.mark.parametrize("argv", [
        "scan --n 2 --r 1 --d 2 --m 4",
        "scan --n 2 --r 1 --d 2 --m 5 --b1 1,1,1,1,1,1",
        "hyper --n 2 --r 1 --d 1 --m 2 --insert=-2:2,1:sub --insert=-2:1",
    ], ids=["scan", "scan_t24", "hyper_mixed"])
    def test_scan_payload_same_under_O(self, tmp_path, argv):
        # the scan's pruning and the checks of `_totalize` and `_intersect`
        # must not hide in an assert: python -O gives the same payload (the
        # second scan has E1 entries at t = 0 and 24; the hyper case
        # intersects two inexact routes)
        src = str(Path(quotbwb.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        argv = argv.split()
        payloads = []
        for flags in ([], ["-O"]):
            out = tmp_path / f"scan{len(flags)}.json"
            subprocess.run([sys.executable, *flags, "-m", "quotbwb.cli", *argv,
                            "--output", str(out)], env=env, check=True, timeout=120)
            payload = json.loads(out.read_text())
            payload.pop("elapsed_ms")
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        result = payloads[0]["result"]
        if argv[0] == "scan":
            assert result["e1"]["entries"]
        else:
            assert result["report"]["notes"] == ["intersection of independent representations"]

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status = run(["lr", "--alpha", "1", "--beta", "1", "--gamma", "2",
                      "--output", str(out)])
        assert status == 0
        assert json.loads(out.read_text())["result"]["coefficient"] == "1"

    def test_reused_parser_matches_fresh_process(self, capsys, tmp_path):
        # one parser serves every run of a process: no appended list or
        # default may leak from one run into the next
        assert build_parser() is build_parser()
        scan = ["scan", "--n", "2", "--r", "1", "--d", "1", "--m", "2"]
        runs = [scan + ["--b1", "1"], scan,
                ["lr", "--alpha", "2,1", "--beta", "1", "--gamma", "2,1,1"]]
        here = []
        for argv in runs:
            status, payload = run_json(capsys, argv)
            assert status == 0
            payload.pop("elapsed_ms")
            here.append(payload)
        src = str(Path(quotbwb.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        for argv, payload in zip(runs, here):
            out = tmp_path / "fresh.json"
            subprocess.run([sys.executable, "-m", "quotbwb.cli", *argv,
                            "--output", str(out)], env=env, check=True, timeout=120)
            fresh = json.loads(out.read_text())
            fresh.pop("elapsed_ms")
            assert payload == fresh, argv
        assert "b1" in here[0]["config"] and "b1" not in here[1]["config"]
