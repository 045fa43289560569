"""Command-line frontend: batch computations with JSON reports.

Exit status 0 on success, 1 on usage and validation errors, 2 when a
`verify` or `examples` run contradicts the checked statement, 3 when
the computation contradicts itself (an `ArithmeticError`, such as
`InconsistencyError`, escapes the command).  All
dimensions are serialized as decimal strings; payloads are deterministic
(sorted keys).  `--jobs N`, N >= 1, is accepted for existing command
lines but ignored and not echoed: every page is computed in one process.
"""

import argparse
import functools
import json
import sys
import time

from . import __version__
from .bwb import GrSpec, bwb_dual_weights, expand_side
from .complexes import (
    HyperInsert,
    hyper_cohomology,
    sx_cohomology,
)
from .partitions import as_weight, dual_entries, format_parts, parse_parts, partition, t_index
from .pipeline import (
    InsertionSpec,
    QuotReport,
    QuotSetup,
    assemble,
    closed_form_multi,
    e1_page,
    ext_table,
    koszul_terms,
    stromme,
    verify_prop47,
    verify_thm41,
)
from .schur import lr, weight_dim


class CliError(ValueError):
    pass


def _partition_arg(text: str):
    try:
        return partition(parse_parts(text))
    except ValueError as exc:
        raise CliError(f"invalid partition '{text}': {exc}") from exc


def _weight_arg(text: str):
    try:
        entries = parse_parts(text)
        if all(x >= 0 for x in entries):
            return partition(entries)
        return as_weight(entries, len(entries))
    except ValueError as exc:
        raise CliError(f"invalid weight '{text}': {exc}") from exc


def _split_arg(text: str, n: int) -> tuple[int, ...]:
    given = parse_parts(text) if text else ()
    if given and len(given) < n:
        given = (0,) * (n - len(given)) + tuple(sorted(given))
    return given


def _setup_from(args) -> QuotSetup:
    try:
        return QuotSetup(args.n, args.r, args.d, _split_arg(args.b, args.n),
                         args.m)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _insert_arg(text: str) -> HyperInsert:
    pieces = text.split(":")
    if len(pieces) not in (2, 3):
        raise CliError(f"insert '{text}' is not e:parts[:side]")
    try:
        e = int(pieces[0])
        lam = _partition_arg(pieces[1])
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return HyperInsert(e, lam, *pieces[2:])


def _quotient_side(inserts: list[HyperInsert]) -> list[tuple]:
    """(e, lam) of each insert: the closed form covers the quotient side only."""
    if any(i.side != "quot" for i in inserts):
        raise CliError("the closed form covers quotient-side inserts only, not ':sub'")
    return [(i.e, i.lam) for i in inserts]


def _table_json(table) -> dict:
    return {str(d): str(v) for d, v in sorted(table.items())}


def _report_json(report: QuotReport) -> dict:
    out = {
        "euler": str(report.euler),
        "exact": report.exact,
        "degenerate": report.degenerate,
        "notes": report.notes,
    }
    if report.exact:
        out["table"] = _table_json(report.table)
    else:
        out["lower"] = _table_json(report.lower)
        out["upper"] = _table_json(report.upper)
        out["relations"] = [
            {"degrees": [hi, lo], "difference": str(diff)}
            for hi, lo, diff in report.relations
        ]
    return out


def _page_json(page) -> dict:
    entries = [{"t": t, "q": q, "dim": str(v)}
               for (t, q), v in sorted(page.entries.items())]
    return {"entries": entries}


def _verdict_json(v) -> dict:
    out = {
        "statement": v.statement,
        "hypotheses_hold": v.hypotheses_hold,
        "matches": v.matches,
        "notes": v.notes,
        "report": _report_json(v.report),
    }
    if v.expected is not None:
        out["expected"] = _table_json(v.expected)
    return out


# ------------------------------------------------------------- subcommands


def cmd_lr(args):
    a, b, g = (_partition_arg(x) for x in (args.alpha, args.beta, args.gamma))
    return {"coefficient": str(lr(a, b, g))}, 0


def cmd_dim(args):
    if args.n < 0:
        raise CliError(f"--n {args.n} is negative")
    return {"dim": str(weight_dim(_weight_arg(args.weight), args.n))}, 0


def cmd_index(args):
    if args.k < 0:
        raise CliError(f"--k {args.k} is negative")
    j = t_index(_weight_arg(args.chi), args.k)
    if j is None:
        return {"index": None, "degree": None, "vanishes": True}, 0
    return {"index": j, "degree": args.k * j, "vanishes": False}, 0


def cmd_bwb(args):
    gr = GrSpec(args.k, args.N)
    b_exp = expand_side([_weight_arg(w) for w in args.b or []], gr.quotient_rank)
    a_exp = expand_side([_weight_arg(w) for w in args.a or []], gr.k)
    # per-summand detail (the answer weight and its dual side by side),
    # summed into the table on the way
    table: dict[int, int] = {}
    summands = []
    for wa, ma in sorted(a_exp.items()):
        for wb, mb in sorted(b_exp.items()):
            out = bwb_dual_weights(gr, dual_entries(wa), dual_entries(wb))
            if out.vanishes:
                continue
            dim = ma * mb * out.dim
            table[out.degree] = table.get(out.degree, 0) + dim
            summands.append({
                "degree": out.degree,
                "gamma": format_parts(out.gamma),
                "dual": format_parts(out.weight),
                "dim": str(dim),
            })
    return {"table": _table_json(table), "summands": summands}, 0


def cmd_stromme(args):
    p = stromme(_setup_from(args))
    return {"gr1": {"k": p.k1, "N": p.n1, "quotient_rank": p.r1},
            "gr2": {"k": p.k2, "N": p.n2, "quotient_rank": p.r2},
            "rank_k": p.rank_k, "quot_dim": p.quot_dim}, 0


def cmd_koszul(args):
    p = stromme(_setup_from(args))
    terms = koszul_terms(p, args.t)
    return {"t": args.t,
            "terms": [{"mu": format_parts(term.mu),
                       "sigma": format_parts(term.sigma),
                       "mult": str(term.mult)} for term in terms]}, 0


def _insertion_spec(args) -> InsertionSpec:
    return InsertionSpec(*[tuple(_weight_arg(w) for w in getattr(args, slot) or [])
                           for slot in InsertionSpec._fields])


def cmd_scan(args):
    p = stromme(_setup_from(args))
    page = e1_page(p, _insertion_spec(args))
    report = assemble(page)
    return {"e1": _page_json(page), "report": _report_json(report)}, 0


def cmd_euler(args):
    p = stromme(_setup_from(args))
    page = e1_page(p, _insertion_spec(args))
    return {"euler": str(page.euler())}, 0


def cmd_ext(args):
    res = ext_table(_setup_from(args), _partition_arg(args.nu),
                    _partition_arg(args.lam))
    return {"table": _table_json(res.table),
            "hypotheses_hold": res.hypotheses_hold,
            "notes": res.notes}, 0


def cmd_closed_form(args):
    setup = _setup_from(args)
    inserts = _quotient_side([_insert_arg(x) for x in args.insert or []])
    cf = closed_form_multi(setup.n, setup.r, setup.d, setup.splitting, inserts)
    return {"table": _table_json(cf.table),
            "hypotheses_hold": cf.hypotheses_hold,
            "degree": cf.degree}, 0


def cmd_hyper(args):
    setup = _setup_from(args)
    inserts = [_insert_arg(x) for x in args.insert or []]
    report = hyper_cohomology(setup, inserts)
    return {"report": _report_json(report)}, 0


def _m_window(args, setup: QuotSetup) -> list[int]:
    if args.m_max is None:
        return [setup.m]
    if args.m_max < setup.m:
        raise CliError(f"--m-max {args.m_max} below the starting twist {setup.m}")
    return list(range(setup.m, args.m_max + 1))


def _sweep_verdicts(args, setup, verifier) -> tuple[dict, int]:
    """Run a verifier of (setup, eta, rho) over the twist window and
    report stabilization.

    No effective threshold for 'twist large enough' is asserted: the
    sweep reports each twist's verdict and the first from which the
    conclusion holds through the end of the window.
    """
    window = _m_window(args, setup)
    verdicts = []
    for m in window:
        v = verifier(QuotSetup(setup.n, setup.r, setup.d, setup.splitting, m),
                     _weight_arg(args.eta), _weight_arg(args.rho))
        verdicts.append((m, v))
    stable_from = None
    for m, v in verdicts:
        if all(w.ok for mm, w in verdicts if mm >= m):
            stable_from = m
            break
    payload = {"window": [w0 for w0, _ in verdicts],
               "stable_from": stable_from,
               "verdicts": {str(m): _verdict_json(v) for m, v in verdicts}}
    if len(window) == 1:
        payload["verdict"] = payload["verdicts"][str(window[0])]
    return payload, 0 if stable_from is not None else 2


# The statements swept over the twist window by `--m-max`.
SWEPT = {"thm41": verify_thm41, "prop47": verify_prop47}


def _verify_ext(args, setup):
    nu, lam = _partition_arg(args.nu), _partition_arg(args.lam)
    res = ext_table(setup, nu, lam)
    concl = True
    notes = list(res.notes)
    if res.hypotheses_hold:
        concl = all(q == 0 for q in res.table)
        if nu == lam and concl:
            concl = res.table == ({0: 1} if nu else res.table)
        if nu and not lam and concl:
            concl = not res.table
    payload = {"table": _table_json(res.table),
               "hypotheses_hold": res.hypotheses_hold, "notes": notes}
    return payload, 0 if (not res.hypotheses_hold or concl) else 2


def _verify_cor14(args, setup):
    inserts = _quotient_side([_insert_arg(x) for x in args.insert or []])
    cf = closed_form_multi(setup.n, setup.r, setup.d, setup.splitting, inserts)
    report = hyper_cohomology(setup, inserts)
    ok = not cf.hypotheses_hold or (report.exact and report.table == cf.table)
    return {"closed_form": _table_json(cf.table),
            "hypotheses_hold": cf.hypotheses_hold,
            "report": _report_json(report)}, 0 if ok else 2


def _verify_thm57(args, setup):
    inserts = [_insert_arg(x) for x in args.insert or []]
    hyp = all(i.e >= setup.d + setup.b for i in inserts)
    report = hyper_cohomology(setup, inserts)
    top = report.max_degree()
    ok = not hyp or top is None or top <= 0
    return {"hypotheses_hold": hyp,
            "report": _report_json(report)}, 0 if ok else 2


def _verify_sx(args, setup):
    lam = _partition_arg(args.lam)
    hyp = 0 != sum(lam) * (setup.n - setup.r) < setup.size_bound
    report = sx_cohomology(setup, lam)
    ok = not hyp or report.is_zero()
    return {"hypotheses_hold": hyp,
            "report": _report_json(report)}, 0 if ok else 2


# Each `verify` statement's handler of (args, setup), in `--help` order.
STATEMENTS = {**{name: functools.partial(_sweep_verdicts, verifier=verifier)
                 for name, verifier in SWEPT.items()},
              "ext": _verify_ext, "cor14": _verify_cor14,
              "thm57": _verify_thm57, "sx": _verify_sx}


def cmd_verify(args):
    if args.m_max is not None and args.statement not in SWEPT:
        raise CliError(f"--m-max applies only to {' and '.join(SWEPT)}")
    return STATEMENTS[args.statement](args, _setup_from(args))


# The worked examples: (setup, insertion, check of the page and its report).
EXAMPLES = {
    # the sixth exterior power: E1 entries 210 and 28 assemble to 182
    "sharp": (QuotSetup(2, 1, 2, m=5), InsertionSpec(b1=((1, 1, 1, 1, 1, 1),)),
              lambda page, report: (page.entries == {(0, 0): 210, (24, 23): 28}
                                    and report.exact and report.table == {0: 182})),
    # the dual symmetric square: 63 and 72 bound h^1, h^2 with h^2 - h^1 = 9
    "sym2": (QuotSetup(3, 1, 3, m=3), InsertionSpec(b1=((0, 0, 0, 0, 0, -2),)),
             lambda page, report: (page.entries == {(12, 13): 63, (11, 13): 72}
                                   and not report.exact
                                   and report.upper == {1: 63, 2: 72}
                                   and not report.degenerate
                                   and (2, 1, 9) in report.relations)),
}


def cmd_examples(args):
    setup, insertion, check = EXAMPLES[args.which]
    page = e1_page(stromme(setup), insertion)
    report = assemble(page)
    ok = check(page, report)
    payload = {"e1": _page_json(page), "report": _report_json(report),
               "matches": ok}
    return payload, 0 if ok else 2


# ------------------------------------------------------------------ plumbing


def _add_setup_args(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--b", default="", help="splitting b_1,...,b_n (default trivial)")
    sub.add_argument("--m", type=int, default=None, help="twist (default b+d)")


def _add_insertion_args(sub):
    for slot in InsertionSpec._fields:
        sub.add_argument(f"--{slot}", action="append", metavar="W",
                         help=f"weight on the {slot} bundle (repeatable)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by `run`."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for existing command lines; selects nothing")
    common.add_argument("--output", default=None, help="write the report here")
    common.add_argument("--format", choices=("json", "table"), default="json")

    ap = argparse.ArgumentParser(
        prog="quotbwb",
        description="Exact Quot-scheme cohomology over P^1 via Borel-Weil-Bott")
    sp = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, func, **kw):
        sub = sp.add_parser(name, parents=[common], **kw)
        sub.set_defaults(func=func)
        return sub

    s = add_parser("lr", cmd_lr, help="one Littlewood-Richardson coefficient")
    s.add_argument("--alpha", required=True)
    s.add_argument("--beta", required=True)
    s.add_argument("--gamma", required=True)

    s = add_parser("dim", cmd_dim, help="Schur functor dimension")
    s.add_argument("--weight", required=True)
    s.add_argument("--n", type=int, required=True)

    s = add_parser("index", cmd_index, help="k-index nonvanishing criterion")
    s.add_argument("--chi", required=True)
    s.add_argument("--k", type=int, required=True)

    s = add_parser("bwb", cmd_bwb, help="cohomology of universal bundles on Gr(k,N)")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--a", action="append")
    s.add_argument("--b", action="append")

    for name, func in (("stromme", cmd_stromme), ("koszul", cmd_koszul),
                       ("scan", cmd_scan), ("euler", cmd_euler)):
        s = add_parser(name, func)
        _add_setup_args(s)
        if name == "koszul":
            s.add_argument("--t", type=int, required=True)
        if name in ("scan", "euler"):
            _add_insertion_args(s)

    s = add_parser("ext", cmd_ext, help="Ext table between quotient-side Schur functors")
    _add_setup_args(s)
    s.add_argument("--nu", required=True)
    s.add_argument("--lam", required=True)

    s = add_parser("closed-form", cmd_closed_form,
                   help="stable closed form for insertions")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--b", default="")
    s.add_argument("--insert", action="append", metavar="E:PARTS")
    s.set_defaults(m=None)

    s = add_parser("hyper", cmd_hyper, help="hypercohomology of Schur insertions")
    _add_setup_args(s)
    s.add_argument("--insert", action="append", metavar="E:PARTS[:SIDE]")

    s = add_parser("verify", cmd_verify, help="check a statement on an instance")
    s.add_argument("statement", choices=tuple(STATEMENTS))
    _add_setup_args(s)
    s.add_argument("--m-max", type=int, default=None, dest="m_max",
                   help="sweep the twist from m to m-max and report "
                        f"stabilization ({'/'.join(SWEPT)} only)")
    s.add_argument("--eta", default="")
    s.add_argument("--rho", default="")
    s.add_argument("--nu", default="")
    s.add_argument("--lam", default="")
    s.add_argument("--insert", action="append", metavar="E:PARTS[:SIDE]")

    s = add_parser("examples", cmd_examples, help="reproduce the two worked examples")
    s.add_argument("which", choices=tuple(EXAMPLES))
    return ap


def _config_echo(args) -> dict:
    skip = {"jobs", "output", "format", "command", "func"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _render_table(payload, indent=0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            lines.append(_render_table(v, indent))
    else:
        lines.append(f"{pad}{payload}")
    return "\n".join(line for line in lines if line)


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:
            raise  # --help
        # a usage error: argparse has printed its message and would exit
        # 2, the status of a contradicted statement
        return 1
    started = time.monotonic()
    try:
        if args.jobs < 1:
            raise CliError(f"--jobs {args.jobs} is below 1")
        result, status = args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # an internal contradiction, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 3
    notes = result.pop("notes", []) if isinstance(result, dict) else []
    envelope = {
        "version": __version__,
        "config": {"command": args.command, **_config_echo(args)},
        "result": result,
        "notes": notes,
        "elapsed_ms": int(1000 * (time.monotonic() - started)),
    }
    if args.format == "json":
        text = json.dumps(envelope, indent=2, sort_keys=True)
    else:
        text = _render_table(envelope)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return status


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
