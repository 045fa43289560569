import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quotbwb

from quotbwb.complexes import (
    HyperInsert,
    _intersect,
    hyper_cohomology,
    m_bracket_rep,
    schur_complex_terms,
    sx_cohomology,
    sx_resolution,
)
from quotbwb.partitions import conjugate, partition, partitions_in_box, size
from quotbwb.pipeline import (
    InsertionSpec,
    QuotReport,
    QuotSetup,
    assemble,
    closed_form_multi,
    e1_page,
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


class TestSchurComplexTerms:
    def test_symmetric_square(self):
        terms = schur_complex_terms((2,), "cohomological")
        assert terms == {0: [((2,), (), 1)],
                         1: [((1,), (1,), 1)],
                         2: [((), (1, 1), 1)]}

    def test_exterior_square(self):
        terms = schur_complex_terms((1, 1), "cohomological")
        assert terms == {0: [((1, 1), (), 1)],
                         1: [((1,), (1,), 1)],
                         2: [((), (2,), 1)]}

    def test_single_box(self):
        assert schur_complex_terms((1,), "cohomological") == \
            {0: [((1,), (), 1)], 1: [((), (1,), 1)]}

    def test_shift_identity(self):
        # homological terms of lam are the cohomological terms of its
        # conjugate shifted by |lam| (Schur-complex duality)
        for lam in all_partitions_upto(6):
            hom = schur_complex_terms(lam, "homological")
            coh = schur_complex_terms(conjugate(lam), "cohomological")
            n = size(lam)
            assert set(hom) == {q - n for q in coh}
            for q, terms in hom.items():
                assert sorted(terms) == sorted(coh[q + n]), (lam, q)


class TestTwoTermRep:
    def test_collapse_points(self):
        setup = QuotSetup(2, 1, 1, m=2)
        rep = m_bracket_rep(setup, 2)          # e = m
        assert rep.left == (0, 0) and rep.right == (1, 0)
        assert rep.virtual_rank == stromme(setup).r2
        rep = m_bracket_rep(setup, 1)          # e = m - 1
        assert rep.right == (0, 0) and rep.left == (0, 1)
        assert rep.virtual_rank == stromme(setup).r1
        rep = m_bracket_rep(setup, 3)          # e = m + 1
        assert rep.left == (1, 0) and rep.right == (2, 0)
        assert rep.virtual_rank == 2 * stromme(setup).r2 - stromme(setup).r1

    def test_rank_oracle_sweep(self):
        for n, r, d, m in [(2, 1, 1, 2), (3, 1, 1, 1), (3, 2, 2, 3), (2, 1, 2, 4)]:
            setup = QuotSetup(n, r, d, m=m)
            for side in ("quot", "sub"):
                for e in range(m - 3, m + 4):
                    rep = m_bracket_rep(setup, e, side)
                    expected = (r * e + r + d if side == "quot"
                                else (n - r) * (e + 1) - d)
                    assert rep.virtual_rank == expected

    def test_at_most_one_multiplicity_slot(self):
        setup = QuotSetup(3, 1, 2, m=2)
        for e in range(-4, 7):
            rep = m_bracket_rep(setup, e)
            assert not (rep.left[0] and rep.left[1])
            assert not (rep.right[0] and rep.right[1])


class TestSxResolution:
    def test_single_box(self):
        assert sx_resolution((1,)) == {0: [((), (1,), 1)],
                                       -1: [((1,), (), 1)]}

    def test_symmetric_square(self):
        assert sx_resolution((2,)) == {0: [((), (2,), 1)],
                                       -1: [((1,), (1,), 1)],
                                       -2: [((1, 1), (), 1)]}

    def test_alternating_rank_sum(self):
        # sum of (-1)^q rank(term at -q) with ranks k1, k2 equals the Schur
        # dimension polynomial at the virtual rank k2 - k1 = n - r
        for n, r, d, m in [(2, 1, 1, 2), (3, 1, 1, 1), (3, 2, 1, 2)]:
            p = stromme(QuotSetup(n, r, d, m=m))
            for lam in all_partitions_upto(4):
                total = 0
                for mq, terms in sx_resolution(lam).items():
                    sign = 1 if mq % 2 == 0 else -1
                    total += sign * sum(c * schur_dim(a, p.k1) * schur_dim(b, p.k2)
                                        for a, b, c in terms)
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
from quotbwb.pipeline import E1Page, QuotReport, QuotSetup, stromme

def report(euler, table):
    return QuotReport(euler, True, table, table, table, True)

page = E1Page(stromme(QuotSetup(2, 1, 1)), {(0, 0): 1}, {})
pipeline.resolve_page = lambda cells: report(2, {0: 2})
checks = {
    "euler disagreement": lambda: _intersect([report(1, {0: 1}), report(2, {0: 1})]),
    "exact outside bounds": lambda: _intersect([report(1, {0: 1}),
                                                report(1, {0: 2, 1: 1})]),
    "assemble euler": lambda: pipeline.assemble(page),
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
        "raised": ["euler disagreement", "exact outside bounds", "assemble euler",
                   "t-index not unique"]}


class TestProp47Randomized:
    def test_no_entry_above_dual_size(self):
        # randomized suite over nonpositive-degree splittings
        rng = random.Random(606)
        from quotbwb.pipeline import verify_prop47
        from quotbwb.partitions import Weight
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
            eta = Weight(tuple(sorted((rng.randrange(-2, 3)
                                       for _ in range(params.r1)),
                                      reverse=True)))
            rho = Weight(tuple(sorted((rng.randrange(-2, 3)
                                       for _ in range(params.r2)),
                                      reverse=True)))
            v = verify_prop47(setup, eta, rho)
            assert v.matches, (setup, eta, rho)
            checked += 1
