"""Acceptance suite: the worked examples bit-exactly, and the vanishing
statements at desk scale.  Every check is exact integer equality.  Each
criterion prints one PASS line (run with -s to stream them)."""

import os
import random
import time
from math import comb

from lemmas import horn_predicates
from oracles import contributions, partitions_in_box
from quotbwb.bwb import GrSpec, bwb_dual_weights, coh_bundle
from quotbwb.cli import run as cli_run
from quotbwb.complexes import hyper_cohomology, sx_cohomology
from quotbwb.partitions import as_weight, conjugate, partition, t_index
from quotbwb.pipeline import (
    InsertionSpec,
    QuotSetup,
    assemble,
    closed_form_multi,
    e1_page,
    ext_table,
    koszul_terms,
    stromme,
    verify_thm41,
)
from quotbwb.schur import lr, lr_expand, schur_dim


def report(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def small_partitions(max_size):
    out = [()]
    for t in range(1, max_size + 1):
        out.extend(partitions_in_box(t, t, t))
    return out


SHARP_SETUP = QuotSetup(2, 1, 2, m=5)
SYM2_SETUP = QuotSetup(3, 1, 3, m=3)


def test_criterion_1_sharpness_example():
    started = time.monotonic()
    params = stromme(SHARP_SETUP)
    page = e1_page(params, InsertionSpec(b1=((1, 1, 1, 1, 1, 1),)))
    assert page.entries == {(0, 0): 210, (24, 23): 28}
    rep = assemble(page)
    assert rep.exact and rep.table == {0: 182}
    elapsed = time.monotonic() - started
    assert elapsed < 600
    assert cli_run(["examples", "sharp", "--output", os.devnull]) == 0
    report(1, f"E1 = {{(0,0): 210, (24,23): 28}}, table {{0: 182}} "
              f"({elapsed:.1f}s)")


def test_criterion_2_sym2_example():
    started = time.monotonic()
    params = stromme(SYM2_SETUP)
    ins = InsertionSpec(b1=((0, 0, 0, 0, 0, -2),))
    page = e1_page(params, ins)
    assert page.entries == {(12, 13): 63, (11, 13): 72}
    terms = contributions(params, ins)
    assert [(mu, sg, mult) for mu, sg, mult, _ in terms[(12, 13)]] \
        == [((8, 2, 2), (6, 1, 1, 1, 1, 1, 1), 7)]
    assert [(mu, sg, mult) for mu, sg, mult, _ in terms[(11, 13)]] \
        == [((7, 2, 2), (6, 1, 1, 1, 1, 1), 6)]
    rep = assemble(page)
    assert not rep.exact and not rep.degenerate
    assert rep.upper == {1: 63, 2: 72}
    assert (2, 1, 9) in rep.relations
    elapsed = time.monotonic() - started
    assert elapsed < 900
    assert cli_run(["examples", "sym2", "--output", os.devnull]) == 0
    report(2, f"E1 = {{(12,13): 63, (11,13): 72}}, H2 - H1 = 9, "
              f"non-degenerate ({elapsed:.1f}s)")


def test_criterion_3_koszul_multiplicity_anchor():
    params = stromme(SHARP_SETUP)
    terms = koszul_terms(params, 24)
    mu, sigma = (10, 10, 4), (6, 6, 2, 2, 2, 2, 2, 2)
    hit = [T for T in terms if T.mu == mu and T.sigma == sigma]
    assert len(hit) == 1 and hit[0].mult == 28
    alpha, beta = (3, 3), (3, 3, 2, 2, 2, 2, 2, 2)
    assert lr(alpha, beta, conjugate(mu)) * lr(alpha, beta, sigma) == 1
    report(3, "t=24 contains (mu=(10,10,4), sigma=(6,6,2^6)) with mult 28; "
              "((3,3),(3,3,2^6)) contributes product 1")


def test_criterion_4_koszul_binomial_conservation():
    p0 = stromme(QuotSetup(2, 1, 1, m=1))
    for t in range(p0.rank_k + 1):
        total = sum(T.mult * schur_dim(T.mu, p0.k1) * schur_dim(T.sigma, p0.r2)
                    for T in koszul_terms(p0, t))
        assert total == comb(p0.rank_k, t)
    p1 = stromme(SHARP_SETUP)
    # t = 24, the middle page, has 2942 terms
    for t in (0, 1, 2, 3, 24):
        total = sum(T.mult * schur_dim(T.mu, p1.k1) * schur_dim(T.sigma, p1.r2)
                    for T in koszul_terms(p1, t))
        assert total == comb(48, t), t
    report(4, "sum mult*dim*dim = C(rankK, t): all t on (2,1,1,m=1); "
              "t <= 3 and t = 24 on the sharp setup (C(48,t))")


def test_criterion_5_thm41_closed_form():
    for m in (2, 3, 4):
        setup = QuotSetup(2, 1, 1, m=m)
        params = stromme(setup)
        v = verify_thm41(setup, (1,), (1,))
        assert v.hypotheses_hold and v.matches
        assert v.report.table == {0: params.n1 * params.n2}
    report(5, "(n=2,r=1,d=1), m in {2,3,4}, gamma=lambda=(1): "
              "table = {0: N1*N2} exactly")


def test_criterion_6_thm41_vanishing():
    setup = QuotSetup(3, 1, 1, m=1)
    params = stromme(setup)
    bound = 3 * 1 + 0 + 3
    cases = 0
    for a in range(1, params.r1 + 1):          # delta = (1^a), nu empty
        if 1 * a >= bound:
            continue
        v = verify_thm41(setup, (0,) * (params.r1 - a) + (-1,) * a, ())
        assert v.hypotheses_hold and v.matches and v.report.is_zero(), a
        cases += 1
    for c in range(1, params.r2 + 1):          # nu = (1^c), delta empty
        if 1 * c >= bound:
            continue
        v = verify_thm41(setup, (), (0,) * (params.r2 - c) + (-1,) * c)
        assert v.hypotheses_hold and v.matches and v.report.is_zero(), c
        cases += 1
    assert cases == 5
    report(6, f"(n=3,r=1,d=1,m=1): all {cases} dual column insertions with "
              "delta_1 + nu_1 = 1 scan to zero")


def test_criterion_7_bwb_oracle_equivalence():
    gr = GrSpec(1, 2)
    for e in range(-8, 9):
        w = as_weight((e,), 1)
        table = coh_bundle(gr, (), (w,))
        expect = {}
        if e >= 0:
            expect[0] = e + 1
        if -e - 1 > 0:
            expect[1] = -e - 1
        assert table == expect, e
    rng = random.Random(424242)
    mismatches = 0
    for _ in range(1000):
        k = rng.randrange(1, 7)
        qr = rng.randrange(1, 7)
        chi = tuple(sorted((rng.randrange(-5, 12) for _ in range(qr)), reverse=True))
        j = t_index(chi, k)
        out = bwb_dual_weights(GrSpec(k, k + qr), as_weight((), k), chi)
        if j is None:
            mismatches += 0 if out.vanishes else 1
        else:
            mismatches += 0 if (not out.vanishes and out.degree == k * j) else 1
    assert mismatches == 0
    report(7, "P^1 line-bundle table reproduced for e in [-8,8]; "
              "index criterion matches the core algorithm on 1000 instances")


def test_criterion_8_lr_property_suite():
    checked = 0
    for gamma in small_partitions(8):
        g = sum(gamma)
        for alpha in small_partitions(g):
            if sum(alpha) > g:
                continue
            for beta in small_partitions(g - sum(alpha)):
                if sum(alpha) + sum(beta) != g:
                    continue
                c = lr(alpha, beta, gamma)
                assert c == lr(beta, alpha, gamma)
                assert c == lr(conjugate(alpha), conjugate(beta),
                               conjugate(gamma))
                if c > 0:
                    rec = horn_predicates(alpha, beta, gamma)
                    assert rec.size and rec.weyl and rec.dominance1 \
                        and rec.dominance2
                checked += 1
    rng = random.Random(31337)
    larger = 0
    while larger < 500:
        alpha = partition(sorted((rng.randrange(0, 6) for _ in range(4)),
                                 reverse=True))
        beta = partition(sorted((rng.randrange(0, 6) for _ in range(4)),
                                reverse=True))
        if sum(alpha) + sum(beta) <= 8:
            continue
        n = rng.randrange(2, 7)
        exp = lr_expand(alpha, beta)
        assert sum(c * schur_dim(g, n) for g, c in exp.items()) == \
            schur_dim(alpha, n) * schur_dim(beta, n)
        gamma = rng.choice(sorted(exp))
        c = exp[gamma]
        assert c == lr(beta, alpha, gamma)
        assert c == lr(conjugate(alpha), conjugate(beta), conjugate(gamma))
        assert horn_predicates(alpha, beta, gamma).all_hold()
        larger += 1
    assert checked > 4000
    report(8, f"symmetry, conjugation, Horn necessity, dimension conservation: "
              f"{checked} exhaustive triples (|gamma| <= 8) + 500 random larger")


def test_criterion_9_structure_sheaf_euler():
    setups = [(2, 1, 1, (), 1), (2, 1, 1, (), 2), (3, 1, 1, (), 1),
              (3, 2, 1, (), 1), (2, 1, 2, (), 3)]
    for n, r, d, s, m in setups:
        page = e1_page(stromme(QuotSetup(n, r, d, s, m)))
        assert page.euler() == 1
        rep = assemble(page)
        assert rep.exact and rep.table == {0: 1}
    report(9, f"chi(O) = 1 on {len(setups)} setups (tables exactly {{0: 1}})")


def test_criterion_10_closed_form_agreement():
    rng = random.Random(20240809)
    done = 0
    while done < 50:
        n = rng.randrange(2, 4)
        r = rng.randrange(1, n)
        d = rng.randrange(0, 3)
        bound = (n * d + n) / (n - r)
        k = rng.randrange(1, 3)
        inserts, total = [], 0
        for _ in range(k):
            e = rng.randrange(-3, 4)
            pick = rng.randrange(0, 4)
            lam = rng.choice([(), (1,), (2,), (1, 1), (3,), (2, 1)][:pick + 2])
            total += sum(lam)
            inserts.append((e, lam))
        if not 0 < total or total > 3 or total >= bound:
            continue
        setup = QuotSetup(n, r, d)
        cf = closed_form_multi(n, r, d, (), inserts)
        assert cf.hypotheses_hold
        rep = hyper_cohomology(setup, inserts)
        assert rep.exact and rep.table == cf.table, (n, r, d, inserts)
        assert rep.euler == sum((-1) ** q * v for q, v in cf.table.items())
        done += 1
    report(10, "hyper_cohomology equals closed_form_multi on 50 randomized "
               "instances (exact tables)")


def test_criterion_11_ext_anchors():
    setup = QuotSetup(3, 1, 1, m=2)
    res = ext_table(setup, (1,), (1,))
    assert res.hypotheses_hold and res.table == {0: 1}
    res = ext_table(setup, (1,), ())
    assert res.hypotheses_hold and res.table == {}
    report(11, "Ext((1),(1)) = {0: 1} and Ext-dual vanishing for nu=(1), "
               "lambda=() on (n=3,r=1,d=1,m=2)")


def test_criterion_12_degree_zero_concentration():
    cases = [
        (QuotSetup(2, 1, 1), [(1, (3,))]),
        (QuotSetup(2, 1, 1), [(2, (2, 1))]),
        (QuotSetup(3, 1, 1), [(1, (2, 2)), (2, (1,))]),
        (QuotSetup(2, 1, 1, (0, 1)), [(2, (2,))]),
        (QuotSetup(3, 2, 1), [(1, (4,))]),
    ]
    for setup, ins in cases:
        assert all(e >= setup.d + setup.b for e, _ in ins)
        rep = hyper_cohomology(setup, ins)
        assert rep.exact and set(rep.table) <= {0}, (setup, ins)
    report(12, f"{len(cases)} instances with all degrees >= d+b concentrate "
               "in degree 0 (exact)")


def test_criterion_13_sx_vanishing():
    setup = QuotSetup(2, 1, 1)
    bound = (2 * 1 + 2) / (2 - 1)
    for lam in [(1,), (2,)]:
        assert sum(lam) < bound
        rep = sx_cohomology(setup, lam)
        assert rep.exact and rep.table == {}, lam
    report(13, "S_x insertions lambda=(1),(2) on (n=2,r=1,d=1) scan to "
               "identically zero tables")
