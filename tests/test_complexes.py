import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quotbwb

from oracles import partitions_in_box, strip_lr_expand
from quotbwb.complexes import (
    HyperInsert,
    _copies,
    _direct_sum,
    _intersect,
    _rep_window,
    _trivial,
    _two_term_schur,
    hyper_cohomology,
    sx_cohomology,
)
from quotbwb.partitions import InconsistencyError, conjugate, contains, partition, size
from quotbwb.pipeline import (
    InsertionSpec,
    QuotReport,
    QuotSetup,
    assemble,
    closed_form_multi,
    e1_page,
    line_coh,
    stromme,
)
from quotbwb.schur import schur_dim


def all_partitions_upto(n):
    out = [()]
    for t in range(1, n + 1):
        out.extend(partitions_in_box(t, t, t))
    return out


def dim_polynomial(lam, value):
    """Hook-content dimension as a polynomial evaluated at any integer."""
    lam = partition(lam)
    dag = conjugate(lam)
    out = Fraction(1)
    for i in range(len(lam)):
        for j in range(1, lam[i] + 1):
            hook = lam[i] - j + dag[j - 1] - i
            out *= Fraction(value + j - (i + 1), hook)
    return out


# Slot ranks that cap no partition of the sizes below.
WIDE = {"a1": 9, "b1": 9, "a2": 9, "b2": 9}


def schur_complex(lam, window, ranks=WIDE):
    """`_two_term_schur` of one map E1 -> E2 (one copy of a1 -> one copy
    of a2) as {degree: {(E1 partition, E2 partition): multiplicity}}."""
    terms = _two_term_schur(lam, _copies("a1", 1, ranks["a1"]),
                            _copies("a2", 1, ranks["a2"]), window)
    return {d: {(key[0][0] if key[0] else (), key[2][0] if key[2] else ()): m
                for key, m in keyed.items()}
            for d, keyed in terms.items()}


class TestSchurComplexTerms:
    def test_symmetric_square(self):
        terms = schur_complex((2,), (0, 1))
        assert terms == {0: {((2,), ()): 1},
                         1: {((1,), (1,)): 1},
                         2: {((), (1, 1)): 1}}

    def test_exterior_square(self):
        terms = schur_complex((1, 1), (0, 1))
        assert terms == {0: {((1, 1), ()): 1},
                         1: {((1,), (1,)): 1},
                         2: {((), (2,)): 1}}

    def test_single_box(self):
        assert schur_complex((1,), (0, 1)) == \
            {0: {((1,), ()): 1}, 1: {((), (1,)): 1}}

    def test_shift_identity(self):
        # homological terms of lam are the cohomological terms of its
        # conjugate shifted by |lam| (Schur-complex duality)
        for lam in all_partitions_upto(6):
            hom = schur_complex(lam, (-1, 0))
            coh = schur_complex(conjugate(lam), (0, 1))
            n = size(lam)
            assert set(hom) == {q - n for q in coh}
            for q, terms in hom.items():
                assert terms == coh[q + n], (lam, q)


def collapse(terms, pos, rank):
    """Terms with the partitions inserted on slot `pos` multiplied out by
    LR (at most `rank` rows) into one partition per key."""
    out = {}
    for d, keyed in terms.items():
        bucket = out.setdefault(d, {})
        for key, m in keyed.items():
            product = {(): 1}
            for theta in key[pos]:
                step = {}
                for a, ma in product.items():
                    for g, mg in strip_lr_expand(a, theta, rank).items():
                        step[g] = step.get(g, 0) + ma * mg
                product = step
            for g, mg in product.items():
                k = key[:pos] + ((g,) if g else (),) + key[pos + 1:]
                bucket[k] = bucket.get(k, 0) + m * mg
    return {d: {k: m for k, m in keyed.items() if m} for d, keyed in out.items() if keyed}


class TestTerms:
    # the term constructors of `_two_term_schur` on every |beta| <= 5
    BETAS = all_partitions_upto(5)

    def test_trivial_sum(self):
        for a in range(4):
            for b in range(4):
                total = _trivial(a + b)
                summed = _direct_sum(_trivial(a), _trivial(b))
                for beta in self.BETAS:
                    assert summed(beta) == total(beta), (a, b, beta)

    def test_copies_sum(self):
        for kind, rank in (("a1", 2), ("b2", 3)):
            pos = ("a1", "b1", "a2", "b2").index(kind)
            for c1 in range(3):
                for c2 in range(3):
                    total = _copies(kind, c1 + c2, rank)
                    summed = _direct_sum(_copies(kind, c1, rank), _copies(kind, c2, rank))
                    for beta in self.BETAS:
                        assert collapse(summed(beta), pos, rank) == total(beta), \
                            (kind, c1, c2, beta)

    def test_zero_copies(self):
        for kind in ("a1", "b1", "a2", "b2"):
            term = _copies(kind, 0, 3)
            for beta in self.BETAS:
                assert term(beta) == ({0: {InsertionSpec(): 1}} if not beta else {}), beta


def virtual_rank(setup, e, side):
    """Signed rank of the two-term representation of O(e) that `_rep_window`
    describes: slot multiplicities times bundle ranks, right minus left,
    negated for the window [0, 1]."""
    window, lm, rm = _rep_window(setup, e)
    p = stromme(setup)
    left, right = (p.r1, p.r2) if side == "quot" else (p.k1, p.k2)
    sign = 1 if window == (-1, 0) else -1
    return sign * (rm * right - lm * left)


class TestTwoTermRep:
    def test_collapse_points(self):
        setup = QuotSetup(2, 1, 1, m=2)
        assert _rep_window(setup, 2) == ((-1, 0), 0, 1)      # e = m
        assert virtual_rank(setup, 2, "quot") == stromme(setup).r2
        assert _rep_window(setup, 1) == ((0, 1), 1, 0)       # e = m - 1
        assert virtual_rank(setup, 1, "quot") == stromme(setup).r1
        assert _rep_window(setup, 3) == ((-1, 0), 1, 2)      # e = m + 1
        assert virtual_rank(setup, 3, "quot") == \
            2 * stromme(setup).r2 - stromme(setup).r1

    def test_rank_oracle_sweep(self):
        for n, r, d, m in [(2, 1, 1, 2), (3, 1, 1, 1), (3, 2, 2, 3), (2, 1, 2, 4)]:
            setup = QuotSetup(n, r, d, m=m)
            for side in ("quot", "sub"):
                for e in range(m - 3, m + 4):
                    expected = (r * e + r + d if side == "quot"
                                else (n - r) * (e + 1) - d)
                    assert virtual_rank(setup, e, side) == expected

    def test_at_most_one_multiplicity_slot(self):
        # the window's degree carries all the cohomology of both twists
        setup = QuotSetup(3, 1, 2, m=2)
        for e in range(-4, 7):
            window, lm, rm = _rep_window(setup, e)
            other = 1 if window == (-1, 0) else 0
            assert line_coh(e - setup.m - 1)[other] == 0
            assert line_coh(e - setup.m)[other] == 0
            assert (lm, rm) == (line_coh(e - setup.m - 1)[1 - other],
                                line_coh(e - setup.m)[1 - other])


class TestSxResolution:
    def test_single_box(self):
        assert schur_complex((1,), (-1, 0)) == {0: {((), (1,)): 1},
                                                -1: {((1,), ()): 1}}

    def test_symmetric_square(self):
        assert schur_complex((2,), (-1, 0)) == {0: {((), (2,)): 1},
                                                -1: {((1,), (1,)): 1},
                                                -2: {((1, 1), ()): 1}}

    def test_alternating_rank_sum(self):
        # sum of (-1)^q rank(term at -q) with ranks k1, k2 equals the Schur
        # dimension polynomial at the virtual rank k2 - k1 = n - r
        for n, r, d, m in [(2, 1, 1, 2), (3, 1, 1, 1), (3, 2, 1, 2)]:
            p = stromme(QuotSetup(n, r, d, m=m))
            ranks = {"a1": p.k1, "b1": p.r1, "a2": p.k2, "b2": p.r2}
            for lam in all_partitions_upto(4):
                total = 0
                for mq, terms in schur_complex(lam, (-1, 0), ranks).items():
                    sign = 1 if mq % 2 == 0 else -1
                    total += sign * sum(c * schur_dim(a, p.k1) * schur_dim(b, p.k2)
                                        for (a, b), c in terms.items())
                assert total == dim_polynomial(lam, n - r), (n, r, lam)


class TestHyper:
    def test_euler_examples(self):
        setup = QuotSetup(2, 1, 1, m=1)
        assert hyper_cohomology(setup, [(-2, (1,))]).euler == -2
        assert hyper_cohomology(setup, []).euler == 1

    def test_collapse_to_direct_scan(self):
        setup = QuotSetup(3, 1, 1, m=2)
        params = stromme(setup)
        for lam in [(1,), (2,), (1, 1)]:
            hy = hyper_cohomology(setup, [(setup.m, lam)])
            direct = assemble(e1_page(params, InsertionSpec(b2=(lam,))))
            assert hy.euler == direct.euler and hy.table == direct.table
            hy = hyper_cohomology(setup, [(setup.m - 1, lam)])
            direct = assemble(e1_page(params, InsertionSpec(b1=(lam,))))
            assert hy.euler == direct.euler and hy.table == direct.table

    def test_negative_degree_insert(self):
        setup = QuotSetup(2, 1, 1, m=1)
        rep = hyper_cohomology(setup, [(-2, (1,))])
        assert rep.exact and rep.table == {1: 2} and rep.euler == -2

    def test_no_theta_terms_without_the_theta_route(self, monkeypatch):
        # H(V(0)) of V = O + O(-2) has degrees 0 and 1, so the section-space
        # triangle gives no route and none of its terms is built, whichever
        # insert comes first
        from quotbwb import complexes
        calls = []
        theta = complexes._terms_insert_theta
        monkeypatch.setattr(complexes, "_terms_insert_theta",
                            lambda *args: calls.append(args) or theta(*args))
        setup = QuotSetup(2, 1, 1, (0, 2))
        for inserts in ([(0, (1,)), (4, (1,))], [(4, (1,)), (0, (1,))]):
            rep = hyper_cohomology(setup, inserts)
            assert (rep.euler, rep.exact, rep.upper, rep.relations) \
                == (0, False, {1: 144, 0: 144}, [(1, 0, 0)])
        assert calls == []

    def test_closed_form_agreement_sample(self):
        cases = [
            (QuotSetup(2, 1, 1), [(-2, (1,))]),
            (QuotSetup(2, 1, 1), [(-1, (1,))]),
            (QuotSetup(3, 1, 1), [(-2, (1,)), (0, (1,))]),
            (QuotSetup(3, 1, 2), [(-3, (2,))]),
            (QuotSetup(3, 2, 2), [(1, (1,)), (-2, (1,))]),
        ]
        for setup, inserts in cases:
            cf = closed_form_multi(setup.n, setup.r, setup.d, setup.splitting,
                                   inserts)
            assert cf.hypotheses_hold, (setup, inserts)
            rep = hyper_cohomology(setup, inserts)
            assert rep.exact and rep.table == cf.table, (setup, inserts)
            assert rep.euler == sum((-1) ** q * v for q, v in cf.table.items())

    def test_degree_zero_concentration(self):
        for setup, ins in [
            (QuotSetup(2, 1, 1), [(1, (3,))]),
            (QuotSetup(2, 1, 1, (0, 1)), [(2, (2,))]),
            (QuotSetup(3, 2, 1), [(1, (4,))]),
        ]:
            rep = hyper_cohomology(setup, ins)
            top = rep.max_degree()
            assert top is None or top <= 0, (setup, ins)

    def test_sharpness_bundle_through_minimal_embedding(self):
        # the corrected global sections of the sixth exterior power, 182,
        # computed at m = 2 (the direct check at m = 5 is elsewhere)
        rep = hyper_cohomology(QuotSetup(2, 1, 2), [(4, (1, 1, 1, 1, 1, 1))])
        assert rep.exact and rep.table == {0: 182}

    def test_cross_embedding_agreement_fresh_instance(self):
        # eighth exterior power at the size bound on d = 3: the direct scan
        # (twists 4/5) finds a forced correction 45 -> 36, and the two-term
        # route at the minimal twist must reproduce it bit-exactly
        direct = assemble(e1_page(stromme(QuotSetup(2, 1, 3, m=5)),
                                  InsertionSpec(b1=((1,) * 8,))))
        assert direct.exact and direct.table == {0: 36}
        hyper = hyper_cohomology(QuotSetup(2, 1, 3), [(4, (1,) * 8)])
        assert hyper.exact and hyper.table == {0: 36} and hyper.euler == 36

    def test_sub_side_insert(self):
        # sub-side Schur insertions vanish within the size bound
        setup = QuotSetup(2, 1, 1, m=1)
        rep = hyper_cohomology(setup, [HyperInsert(1, (1,), "sub")])
        assert rep.exact and rep.table == {}

    def test_each_insert_built_once(self, monkeypatch):
        # a sub-side insert is one consecutive-twist complex on both routes
        from quotbwb import complexes
        terms_insert_L = complexes._terms_insert_L
        built = []

        def counting(setup, ranks, e, lam, side):
            built.append((e, lam, side))
            return terms_insert_L(setup, ranks, e, lam, side)

        monkeypatch.setattr(complexes, "_terms_insert_L", counting)
        rep = hyper_cohomology(QuotSetup(2, 1, 1, m=2),
                               [(1, (2, 1), "sub"), (3, (1,), "sub")])
        assert built == [(1, (2, 1), "sub"), (3, (1,), "sub")]
        assert rep == QuotReport(0, True, {}, {}, {}, True)

    def test_scan_memo_keyed_by_insertion_spec(self, monkeypatch):
        # every formal term is an InsertionSpec of entry tuples, and its
        # memoized report is the scan of the same entries given as lists
        from quotbwb import complexes
        monkeypatch.setattr(complexes, "_SCAN_CACHE", {})
        setup = QuotSetup(2, 1, 1, m=2)  # d + b = 1
        hyper_cohomology(setup, [(-1, (1,)), (0, (2,))])
        hyper_cohomology(setup, [(2, (1, 1)), (1, (1,), "sub")])
        assert len(complexes._SCAN_CACHE) > 1
        for (s, spec), report in complexes._SCAN_CACHE.items():
            assert type(spec) is InsertionSpec and spec == InsertionSpec(*spec.key())
            as_lists = InsertionSpec(*[[list(w) for w in ws] for ws in spec])
            assert report == assemble(e1_page(stromme(s), as_lists)), spec


class TestSx:
    def test_vanishing(self):
        setup = QuotSetup(2, 1, 1)
        for lam in [(1,), (2,)]:
            rep = sx_cohomology(setup, lam)
            assert rep.exact and rep.table == {} and rep.euler == 0, lam

    def test_vanishing_full_sweep_below_bound(self):
        # every nontrivial lam below (nd+n)/(n-r) = 4 gives the zero table
        setup = QuotSetup(2, 1, 1)
        for lam in all_partitions_upto(3):
            if not lam:
                continue
            rep = sx_cohomology(setup, lam)
            assert rep.exact and rep.table == {}, lam

    def test_trivial_partition(self):
        rep = sx_cohomology(QuotSetup(2, 1, 1), ())
        assert rep.exact and rep.table == {0: 1}


def test_private_sites_get_canonical_partitions(monkeypatch):
    # the hyper and sx paths hand these three routines partitions that are
    # canonical already (HyperInsert.lam, conjugates, skew and subpartition
    # keys), so none of them re-validates its partition argument
    from quotbwb import complexes, schur
    seen = dict.fromkeys(["schur_of_sum_copies", "_two_term_schur",
                          "_terms_insert_theta"], 0)

    def watch(module, name, pos):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            lam = args[pos]
            assert type(lam) is tuple and partition(lam) == lam, (name, lam)
            seen[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
        return wrapped

    monkeypatch.setattr(schur, "_SUM_CACHE", {})
    monkeypatch.setattr(complexes, "schur_of_sum_copies",
                        watch(schur, "schur_of_sum_copies", 0))
    watch(complexes, "_two_term_schur", 0)
    watch(complexes, "_terms_insert_theta", 3)
    for setup in (QuotSetup(2, 1, 1, m=1), QuotSetup(2, 1, 1, (0, 1))):
        for e in range(-2, 4):  # every regime of _terms_insert_theta
            hyper_cohomology(setup, [(e, (2, 1))])
        hyper_cohomology(setup, [(1, (1,), "sub"), (-1, (1, 1))])
        sx_cohomology(setup, [2, 1, 0])
    assert all(seen.values()), seen


def test_unchecked_expansions_get_canonical_partitions(monkeypatch):
    # every package caller of the unchecked skew and LR expansions hands
    # them canonical partitions (nu inside lam for the skew), so neither
    # re-validates; the check stays in `skew_expand` for outside input
    from quotbwb import complexes, pipeline, schur
    callers = {"_skew_expand": set(), "lr_expand": set()}

    def watch(fn, skew):
        def wrapped(lam, nu, max_rows=None):
            for x in (lam, nu):
                assert type(x) is tuple and partition(x) == x, (fn.__name__, x)
            assert not skew or contains(lam, nu), (lam, nu)
            callers[fn.__name__].add(sys._getframe(1).f_code.co_name)
            return fn(lam, nu, max_rows)

        return wrapped

    skew = watch(schur._skew_expand, True)
    monkeypatch.setattr(schur, "_skew_expand", skew)
    monkeypatch.setattr(complexes, "_skew_expand", skew)
    monkeypatch.setattr(schur, "lr_expand", watch(schur.lr_expand, False))
    for memo in ("_SUM_CACHE", "_SKEW_CACHE", "_LR_EXPAND_CACHE"):
        monkeypatch.setattr(schur, memo, {})
    monkeypatch.setattr(complexes, "_SCAN_CACHE", {})
    monkeypatch.setattr(pipeline, "_SURVIVOR_CACHE", {})
    for setup in (QuotSetup(2, 1, 1, m=1), QuotSetup(2, 1, 1, (0, 1))):
        for e in range(-2, 4):  # every regime of _terms_insert_theta
            hyper_cohomology(setup, [(e, (2, 1))])
        hyper_cohomology(setup, [(1, (1,), "sub"), (-1, (1, 1))])
        sx_cohomology(setup, [2, 1, 0])
    e1_page(stromme(QuotSetup(2, 1, 1, m=3)),
            InsertionSpec(a1=((1,), (0, -1)), b1=((2, 1),), a2=((1,),), b2=((1,),)))
    # level is koszul_pair_mult's pair loop; lr_expand fills beta after
    # alpha itself and no longer goes through the skew memo
    assert callers == {
        "_skew_expand": {"schur_of_sum_copies", "_two_term_schur", "direct_sum_expand",
                         "level"},
        "lr_expand": {"tensor_entries", "schur_of_sum_copies"}}, callers


def _bounds(euler, lower, upper, exact=False):
    table = dict(upper) if exact else None
    return QuotReport(euler, exact, table, lower, upper, exact)


class TestIntersect:
    def test_exact_report_returned_unchanged(self):
        exact = _bounds(1, {0: 1}, {0: 1}, exact=True)
        loose = _bounds(1, {}, {0: 1, 1: 1})
        assert _intersect([loose, exact]) is exact
        assert _intersect([exact]) is exact

    def test_single_uncertain_degree_pinned(self):
        # true table {0: 3, 1: 1}: the intersection knows degree 0 and
        # bounds degree 1 by [0, 1]; chi = 2 pins it to 1
        first = _bounds(2, {0: 3}, {0: 3, 1: 2})
        second = _bounds(2, {0: 2}, {0: 4, 1: 1})
        out = _intersect([first, second])
        assert out.exact and out.table == {0: 3, 1: 1}
        assert out.euler == 2
        assert "degree 1 pinned by the exact Euler characteristic" in out.notes

    @pytest.mark.parametrize("other", [
        _bounds(1, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, exact=True),
        _bounds(1, {1: 2}, {0: 1, 1: 3, 2: 1})])
    def test_exact_zero_outside_bounds_raises(self, other):
        # the exact table is 0 in degree 1, where the other route's lower
        # bound is positive; equal Euler characteristics hide it
        with pytest.raises(InconsistencyError):
            _intersect([_bounds(1, {0: 1}, {0: 1}, exact=True), other])

    def test_disjoint_bounds_raise(self):
        with pytest.raises(ArithmeticError):
            _intersect([_bounds(3, {0: 3}, {0: 3}), _bounds(3, {}, {0: 2})])

    def test_pin_outside_bounds_raises(self):
        # same bounds as above, but chi = 5 would pin degree 1 to -2
        first = _bounds(5, {0: 3}, {0: 3, 1: 2})
        second = _bounds(5, {0: 2}, {0: 4, 1: 1})
        with pytest.raises(ArithmeticError):
            _intersect([first, second])


# Run under `python -O`: each internal check must raise InconsistencyError
# although the interpreter strips every assert.
_INVARIANTS_UNDER_O = """
import json, sys
from quotbwb import pipeline
from quotbwb.complexes import _intersect
from quotbwb.partitions import InconsistencyError, t_index
from quotbwb.pipeline import E1Page, QuotReport

def report(euler, table):
    return QuotReport(euler, True, table, table, table, True)

checks = {
    "euler disagreement": lambda: _intersect([report(1, {0: 1}), report(2, {0: 1})]),
    "exact outside bounds": lambda: _intersect([report(1, {0: 1}),
                                                report(1, {0: 2, 1: 1})]),
    "exact zero inside bounds": lambda: _intersect([report(1, {0: 1}),
                                                    report(1, {0: 1, 1: 1, 2: 1})]),
    "page cannot cancel": lambda: pipeline.assemble(E1Page({(1, 0): 1})),
    "t-index not unique": lambda: t_index((0, 0), -5),
}
raised = []
for name, check in checks.items():
    try:
        check()
    except InconsistencyError:
        raised.append(name)
assert False  # stripped
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised}))
"""


def test_invariants_raise_under_O():
    src = str(Path(quotbwb.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", _INVARIANTS_UNDER_O],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True, timeout=60)
    assert json.loads(out.stdout) == {
        "optimize": 1,
        "raised": ["euler disagreement", "exact outside bounds",
                   "exact zero inside bounds", "page cannot cancel",
                   "t-index not unique"]}


class TestProp47Randomized:
    def test_no_entry_above_dual_size(self):
        # randomized suite over nonpositive-degree splittings
        rng = random.Random(606)
        from quotbwb.pipeline import verify_prop47
        checked = 0
        while checked < 20:
            n = rng.randrange(2, 4)
            r = rng.randrange(1, n)
            d = rng.randrange(0, 3)
            extra = tuple(sorted(rng.randrange(0, 2) for _ in range(n - 1)))
            setup = QuotSetup(n, r, d, (0,) + extra)
            params = stromme(setup)
            if params.r1 == 0 or params.rank_k > 10:
                continue
            eta = tuple(sorted((rng.randrange(-2, 3) for _ in range(params.r1)),
                               reverse=True))
            rho = tuple(sorted((rng.randrange(-2, 3) for _ in range(params.r2)),
                               reverse=True))
            v = verify_prop47(setup, eta, rho)
            assert v.matches, (setup, eta, rho)
            checked += 1
