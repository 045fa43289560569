import concurrent.futures
import random
import sys
from contextlib import contextmanager
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (collision_free, complement, contributions, dual_pair_possible,
                     graded_pair_mult, pair_possible, partitions_in_box,
                     resolve_page_pairwise, strip_lr_expand)
from quotbwb import pipeline, schur
from quotbwb.bwb import (GrSpec, coh_bundle, coh_duals_nonempty, dual_side,
                         expand_side)
from quotbwb.cli import EXAMPLES
from quotbwb.partitions import (
    InconsistencyError,
    WeightLengthError,
    as_weight,
    conjugate,
    dual_entries,
    part,
    partition,
    size,
    subpartitions,
    t_index,
)
from quotbwb.pipeline import (
    InsertionSpec,
    QuotSetup,
    assemble,
    bundle_coh,
    closed_form_multi,
    e1_page,
    ext_table,
    koszul_terms,
    line_coh,
    resolve_page,
    stromme,
    verify_prop47,
    verify_thm41,
)
from quotbwb.schur import (
    _pair_alphas,
    _skew_expand,
    koszul_pair_mult,
    schur_dim,
    skew_expand,
    weight_dim,
)


def koszul_sigma_expansion(mu, r2):
    """Full expansion of S^{mu^dag}(B2^dual + B2^dual) into S^sigma(B2^dual).

    Multiplicity of sigma is sum over alpha, beta of
    c^{mu^dag}_{alpha,beta} * c^sigma_{alpha,beta}: the oracle for the
    pair route (`pair_possible` + `koszul_pair_mult`).
    """
    theta = conjugate(mu)
    out = {}
    for alpha in subpartitions(theta, r2):
        for beta, c1 in _skew_expand(theta, alpha, r2).items():
            for sigma, c2 in strip_lr_expand(alpha, beta, r2).items():
                out[sigma] = out.get(sigma, 0) + c1 * c2
    return out


def weyl_fits(lam, alpha, width, height):
    """Weyl's bounds for c^lam_{alpha,beta} != 0 with beta_1 <= width and
    len(beta) <= height: lam_i <= alpha_i + width, lam_{i+height} <= alpha_i."""
    for i, x in enumerate(lam):
        if x > part(alpha, i + 1) + width:
            return False
        if i >= height and x > part(alpha, i + 1 - height):
            return False
    return True


def oracle_pair_alphas(theta, sigma, max_rows=None):
    """The alpha of the pair sum by filtering every subpartition of the meet
    (at most `max_rows` rows, None: no cap) by size and by Weyl's bounds on
    both sides."""
    meet = tuple(min(a, b) for a, b in zip(theta, sigma))
    rows = len(meet) if max_rows is None else min(max_rows, len(meet))
    least = size(theta) - size(meet)
    width = part(meet, 1)
    return [alpha for alpha in subpartitions(meet, max_rows)
            if size(alpha) >= least and weyl_fits(theta, alpha, width, rows)
            and weyl_fits(sigma, alpha, width, rows)]


def first_parts(lam, alpha):
    """(longest row, number of nonempty columns) of the skew shape lam/alpha."""
    lam_dag, alpha_dag = conjugate(lam), conjugate(alpha)
    longest = max((x - part(alpha, i) for i, x in enumerate(lam, 1)), default=0)
    return longest, sum(part(alpha_dag, c) < h for c, h in enumerate(lam_dag, 1))


def oracle_cut_pair_alphas(theta, sigma):
    """`oracle_pair_alphas` less the alpha that fail the first-column cut,
    read off the skew shapes: the longest row of sigma/alpha against the
    nonempty columns of theta/alpha, and the same with theta and sigma
    swapped."""
    out = []
    for alpha in oracle_pair_alphas(theta, sigma):
        row_t, cols_t = first_parts(theta, alpha)
        row_s, cols_s = first_parts(sigma, alpha)
        if row_s <= cols_t and row_t <= cols_s:
            out.append(alpha)
    return out


def oracle_koszul_pair_mult(theta, sigma, max_rows):
    """sum_alpha <s_{theta/alpha}, s_{sigma/alpha}> over the filtered
    subpartitions, every term expanded: the pair loop with no dominance cut
    and no generated alpha."""
    theta, sigma = partition(theta), partition(sigma)
    if size(theta) != size(sigma):
        return 0
    rows = min(max_rows, len(theta), len(sigma))
    total = 0
    for alpha in oracle_pair_alphas(theta, sigma, max_rows):
        e1 = _skew_expand(theta, alpha, rows)
        e2 = _skew_expand(sigma, alpha, rows)
        total += sum(m * e2.get(b, 0) for b, m in e1.items())
    return total


def prefiltered_pairs(setup):
    """(theta, sigma, r2) for every pair of every t-box of the setup that
    passes `pair_possible`."""
    p = stromme(setup)
    for t in range(p.rank_k + 1):
        sigmas = [(s, conjugate(s))
                  for s in partitions_in_box(p.r2, min(2 * p.k1, t), t)]
        for mu in partitions_in_box(p.k1, 2 * p.r2, t):
            theta = conjugate(mu)
            for sigma, sigma_dag in sigmas:
                if pair_possible(theta, mu, sigma, sigma_dag):
                    yield theta, sigma, p.r2


def oracle_koszul_terms(p, t):
    """(mu, sigma, mult) of the t-th Koszul term through the full expansion,
    mu in descending-lex order, then sigma."""
    terms = []
    for mu in partitions_in_box(p.k1, 2 * p.r2, t):
        exp = koszul_sigma_expansion(mu, p.r2)
        for sigma in sorted(exp, reverse=True):
            if exp[sigma]:
                terms.append((mu, sigma, exp[sigma]))
    return terms


class TestSetupAndParams:
    def test_worked_example_embeddings(self):
        p = stromme(QuotSetup(2, 1, 2, m=5))
        assert (p.k1, p.n1, p.r1) == (3, 10, 7)
        assert (p.k2, p.n2, p.r2) == (4, 12, 8)
        p = stromme(QuotSetup(3, 1, 3, m=3))
        assert (p.k1, p.n1, p.r1) == (3, 9, 6)
        assert (p.k2, p.n2, p.r2) == (5, 12, 7)

    def test_degenerate_first_factor(self):
        p = stromme(QuotSetup(2, 1, 1, m=1))
        assert p.k1 == 0 and (p.k2, p.n2) == (1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuotSetup(2, 2, 1)
        with pytest.raises(ValueError):
            QuotSetup(2, 1, 1, m=0)
        with pytest.raises(ValueError):
            QuotSetup(2, 1, 1, (1, 0))

    def test_invariant_sweep(self):
        rng = random.Random(55)
        for _ in range(200):
            n = rng.randrange(2, 5)
            r = rng.randrange(1, n)
            d = rng.randrange(0, 5)
            extra = tuple(sorted(rng.randrange(0, 3) for _ in range(n - 1)))
            setup = QuotSetup(n, r, d, (0,) + extra,
                              m=sum(extra) + d + rng.randrange(0, 4))
            p = stromme(setup)
            assert p.n1 == p.k1 + p.r1 and p.n2 == p.k2 + p.r2
            assert p.k1 * p.r1 + p.k2 * p.r2 - p.rank_k == setup.quot_dim


class TestKoszul:
    def test_linear_term(self):
        p = stromme(QuotSetup(2, 1, 2, m=5))
        assert [(T.mu, T.sigma, T.mult) for T in koszul_terms(p, 1)] == \
            [((1,), (1,), 2)]

    def test_conservation_small_setup_all_t(self):
        p = stromme(QuotSetup(3, 1, 1, m=1))
        for t in range(p.rank_k + 1):
            total = sum(T.mult * schur_dim(T.mu, p.k1) * schur_dim(T.sigma, p.r2)
                        for T in koszul_terms(p, t))
            assert total == comb(p.rank_k, t), t

    def test_conservation_degenerate_setup(self):
        p = stromme(QuotSetup(2, 1, 1, m=1))
        assert p.rank_k == 0
        assert [(T.mu, T.sigma, T.mult) for T in koszul_terms(p, 0)] == \
            [((), (), 1)]

    def test_range_rejection(self):
        p = stromme(QuotSetup(2, 1, 1, m=1))
        with pytest.raises(ValueError):
            koszul_terms(p, 1)

    def test_box_generator_is_partitions_in_box(self):
        # koszul_terms enumerates its boxes through the collision walk with
        # nothing dead and a size cap of t: every partition of t in the
        # box, in order
        for rows in range(7):
            for cols in range(8):
                for t in range(-1, rows * cols + 2):
                    walk = pipeline._collision_free_by_size(rows, cols, [frozenset()], t)
                    got = walk.get(t, [])
                    assert got == partitions_in_box(rows, cols, t), (rows, cols, t)
                    assert all(size(lam) == s <= t for s, lams in walk.items()
                               for lam in lams), (rows, cols, t)

    def test_pair_route_matches_expansion_route(self):
        # the oracle expands through subpartition/skew/LR chains; the pair
        # route evaluates fixed (mu, sigma) pairs through skew inner products
        # with row and Weyl cuts.  Both must produce identical multiplicities
        # on every pair of the boxes, zeros included.
        for setup in (QuotSetup(3, 1, 1, m=1), QuotSetup(2, 1, 1, m=3),
                      QuotSetup(2, 1, 2, m=4)):
            p = stromme(setup)
            for t in range(p.rank_k + 1):
                expansion = {(mu, sigma): mult
                             for mu, sigma, mult in oracle_koszul_terms(p, t)}
                for mu in partitions_in_box(p.k1, 2 * p.r2, t):
                    cols = min(2 * p.k1, t) if t else 0
                    for sigma in partitions_in_box(p.r2, cols, t):
                        got = koszul_pair_mult(conjugate(mu), sigma)
                        assert got == expansion.get((mu, sigma), 0), \
                            (setup, mu, sigma)

    @pytest.mark.parametrize("setup, count", [(QuotSetup(2, 1, 2, m=4), 1174),
                                              (QuotSetup(3, 1, 1, m=2), 1173)])
    def test_terms_match_expansion_oracle(self, setup, count):
        # same terms in the same order, term by term, at every t
        p = stromme(setup)
        total = 0
        for t in range(p.rank_k + 1):
            got = [(T.t, T.mu, T.sigma, T.mult) for T in koszul_terms(p, t)]
            assert got == [(t, *term) for term in oracle_koszul_terms(p, t)], t
            total += len(got)
        assert total == count


def box_survivors(rows, cols, lams=None):
    """Survivors of `lams` (None: every partition of the rows x cols box)
    in the rows x cols box, with nothing beside them."""
    inputs = (GrSpec(rows, rows + cols), cols, [], None)
    if lams is None:
        lams = partitions_in_box(rows, cols)
    return [pipeline._Survivor(lam, inputs) for lam in lams]


def survivor_box(s):
    """(rows, cols) of a survivor's box."""
    return s.inputs[0].k, s.inputs[1]


def oracle_join(t, firsts, seconds):
    """(t, mu, sigma) of two survivor lists of one t joined by the oracle:
    the pair and its complement pair pass `pair_possible`, then both
    factor tables, built by `coh_duals`, are nonempty.  The pair alone is
    tested first, on the survivors' conjugates, to skip most conjugates."""
    return [(t, f1.lam, f2.lam) for f1 in firsts for f2 in seconds
            if pair_possible(f1.dag, f1.lam, f2.lam, f2.dag)
            and dual_pair_possible(f1.lam, survivor_box(f1), f2.lam, survivor_box(f2))
            and f1.table() and f2.table()]


# Setups small enough for the full expansion: n <= 3 and rank_k <= 28.
_PRUNE_SETUPS = [s for s in (QuotSetup(n, r, d, b, m=sum(b) + d + e)
                             for n in (2, 3) for r in range(1, n)
                             for d in range(3)
                             for b in ((0,) * n, (0,) * (n - 1) + (1,))
                             for e in range(3))
                 if 0 < stromme(s).rank_k <= 28]


class TestPairPrefilter:
    @staticmethod
    def _join_one_t(monkeypatch, firsts, seconds):
        """The join of two survivor lists handed to it as those of t = 0,
        and the oracle's: `pair_possible` on the pair and on its built
        complement pair, pair for pair in order."""
        monkeypatch.setattr(pipeline, "_factor_survivors",
                            lambda params, factor, a, b, t:
                            (firsts if factor == 1 else seconds) if t == 0 else [])
        got = [(t, f1.lam, f2.lam) for t, f1, f2 in
               pipeline._candidate_pairs(stromme(QuotSetup(2, 1, 1)), InsertionSpec())]
        want = [(0, f1.lam, f2.lam) for f1 in firsts for f2 in seconds
                if dual_pair_possible(f1.lam, survivor_box(f1), f2.lam, survivor_box(f2))]
        own = sum(pair_possible(f1.dag, f1.lam, f2.lam, f2.dag)
                  for f1 in firsts for f2 in seconds)
        return got, want, own

    def test_one_walk_matches_meet_oracle(self, monkeypatch):
        # every ordered pair of partitions of at most 9, sizes unequal
        # included, in 9 x 9 boxes: Dvir's four bounds on the pair's keys
        # and on its complement's keys, and the four meet walks, against
        # the oracle's parts and meet tuples
        parts = [lam for n in range(10) for lam in partitions_in_box(n, n, n)]
        assert len(parts) == 97
        got, want, own = self._join_one_t(monkeypatch, box_survivors(9, 9, parts),
                                          box_survivors(9, 9, parts))
        assert got == want
        assert 0 < len(got) <= own < len(parts) ** 2

    def test_one_walk_matches_oracle_in_koszul_boxes(self, monkeypatch):
        # every ordered pair of the partitions of the boxes of k1 = 4,
        # r2 = 3, sizes unequal included, where the complement pair cuts
        firsts, seconds = box_survivors(4, 6), box_survivors(3, 8)
        assert (len(firsts), len(seconds)) == (210, 165)
        got, want, own = self._join_one_t(monkeypatch, firsts, seconds)
        assert got == want
        assert 0 < len(got) < own

    @pytest.mark.parametrize("setup, ins", [
        (QuotSetup(2, 1, 2, m=6), InsertionSpec()),
        (QuotSetup(2, 1, 2, m=7), InsertionSpec()),
        (QuotSetup(2, 1, 2, m=8), InsertionSpec()),
        (QuotSetup(3, 1, 1, m=4), InsertionSpec()),
        EXAMPLES["sharp"][:2],
        EXAMPLES["sym2"][:2],
        # the thm41 sweep's largest page, insertions beside both partitions
        (QuotSetup(2, 1, 1, m=5), InsertionSpec(b1=((1,) + (0,) * 5,),
                                                b2=((1,) + (0,) * 6,))),
        # k1 = 0: the first factor's box has no row
        (QuotSetup(2, 1, 1, m=1), InsertionSpec(b2=((1, 0, 0),))),
    ], ids=["212m6", "212m7", "212m8", "311m4", "sharp", "sym2", "thm41m5", "k1=0"])
    def test_real_pages_match_oracle_join(self, setup, ins):
        # the real candidate lists of every t, joined by the oracle: the
        # pair and its complement pair pass `pair_possible`, then both
        # tables are nonempty
        p = stromme(setup)
        a1, b1, a2, b2 = ins.key()
        want = []
        for t in range(p.rank_k + 1):
            firsts = pipeline._factor_survivors(p, 1, a1, b1, t)
            seconds = pipeline._factor_survivors(p, 2, a2, b2, t) if firsts else []
            want.extend(oracle_join(t, firsts, seconds))
        got = [(t, f1.lam, f2.lam) for t, f1, f2 in pipeline._candidate_pairs(p, ins)]
        assert got == want
        assert got

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_prefilter_keeps_every_nonzero_pair(self, data):
        # every sigma in the full expansion of S^{mu^dag}(B2^dual + B2^dual)
        # must pass the necessary condition the scan prunes with
        setup = data.draw(st.sampled_from(_PRUNE_SETUPS))
        p = stromme(setup)
        t = data.draw(st.integers(0, p.rank_k))
        mu = data.draw(st.sampled_from(partitions_in_box(p.k1, 2 * p.r2, t)))
        theta = conjugate(mu)
        for sigma, mult in koszul_sigma_expansion(mu, p.r2).items():
            if mult:
                assert pair_possible(theta, mu, sigma, conjugate(sigma)), \
                    (setup, mu, sigma)

    def test_pair_mult_matches_filter_loop(self):
        # generated alpha and memoized skew expansions against the plain
        # filter loop on every prefiltered pair, zeros included: the
        # uncapped kernel against the sum capped at r2 rows, the rank of B2
        setups = [QuotSetup(2, 1, 2, m=3), QuotSetup(2, 1, 2, m=4),
                  QuotSetup(3, 1, 1, m=1), QuotSetup(3, 1, 1, m=2),
                  QuotSetup(3, 1, 2, m=2), QuotSetup(3, 2, 1, m=2),
                  QuotSetup(2, 1, 1, m=2)]
        pairs = [pair for setup in setups for pair in prefiltered_pairs(setup)]
        assert len(pairs) == 2857
        for theta, sigma, r2 in pairs:
            assert koszul_pair_mult(theta, sigma) == \
                oracle_koszul_pair_mult(theta, sigma, r2), (theta, sigma, r2)

    def test_prefilter_prunes(self):
        # g((1,1,1,1), (4), nu) is nonzero only for nu = (1,1,1,1)
        assert koszul_pair_mult((1, 1, 1, 1), (4,)) == 0
        assert not pair_possible((1, 1, 1, 1), (4,), (4,), (1, 1, 1, 1))
        assert pair_possible((2, 1), (2, 1), (2, 1), (2, 1))


class TestKoszulDuality:
    """The complement filter of `_candidate_pairs`: Lambda^t K^dual is
    dual to Lambda^{N-t} K^dual up to det, so a pair and its complement
    pair in the k1 x 2r2 and r2 x 2k1 boxes have one multiplicity."""

    # every box pair with k1, r2 <= 4 and k1 r2 <= 12, empty boxes included
    BOXES = [(k1, r2) for k1 in range(5) for r2 in range(5) if k1 * r2 <= 12]

    def test_identity_and_filter_on_every_pair(self, monkeypatch):
        # koszul_pair_mult(mu^dag, sigma) == koszul_pair_mult((mu^c)^dag,
        # sigma^c) on every equal-size pair, and the join, handed every
        # partition of both boxes at each t, drops no nonzero pair
        pairs = nonzero = 0
        for k1, r2 in self.BOXES:
            firsts, seconds = box_survivors(k1, 2 * r2), box_survivors(r2, 2 * k1)
            monkeypatch.setattr(pipeline, "_factor_survivors",
                                lambda params, factor, a, b, t:
                                [s for s in (firsts if factor == 1 else seconds)
                                 if size(s.lam) == t])
            kept = {(f1.lam, f2.lam) for _, f1, f2 in pipeline._candidate_pairs(
                SimpleNamespace(rank_k=2 * k1 * r2), InsertionSpec())}
            for f1 in firsts:
                for f2 in seconds:
                    if size(f1.lam) != size(f2.lam):
                        continue
                    pairs += 1
                    mult = koszul_pair_mult(conjugate(f1.lam), f2.lam)
                    mu_c = complement(f1.lam, k1, 2 * r2)
                    sigma_c = complement(f2.lam, r2, 2 * k1)
                    assert koszul_pair_mult(conjugate(mu_c), sigma_c) == mult, \
                        (k1, r2, f1.lam, f2.lam)
                    if mult:
                        nonzero += 1
                        assert (f1.lam, f2.lam) in kept, (k1, r2, f1.lam, f2.lam)
        assert (pairs, nonzero) == (5231, 3237)

    def test_complement_keys_match_built_complement(self):
        # the four complement keys read off lam equal the keys of the built
        # complement, and `complement()` builds it, in every box with 0-4
        # rows, the row-less box included
        seen = 0
        for rows in range(5):
            for cols in range(7):
                for s in box_survivors(rows, cols):
                    c = complement(s.lam, rows, cols)
                    c_dag = conjugate(c)
                    assert s.complement() == (c, c_dag), (rows, cols, s.lam)
                    assert (s.ch, s.cw, s.ch2, s.cw2) == \
                        (len(c), part(c, 1), part(c_dag, 1) + part(c_dag, 2),
                         part(c, 1) + part(c, 2)), (rows, cols, s.lam)
                    assert (s.h, s.w, s.h2, s.w2) == \
                        (len(s.lam), part(s.lam, 1), part(s.dag, 1) + part(s.dag, 2),
                         part(s.lam, 1) + part(s.lam, 2)), (rows, cols, s.lam)
                    seen += 1
        assert seen == sum(len(partitions_in_box(r, c)) for r in range(5) for c in range(7))
        assert box_survivors(0, 6)[0].cw == 0

    def test_conjugate_and_complement_are_built_on_first_read(self):
        s = box_survivors(3, 4, [(2, 1)])[0]
        assert s._dag is None and s._comp is None and s.live is None
        assert s.dag == (2, 1) and s.complement() == ((4, 3, 2), (3, 3, 2, 1))
        assert s._dag == (2, 1) and s.alive() and s.live is True


class TestPairAlphas:
    """The generated alpha of the pair sum against the filtered enumeration,
    with and without the first-column cut."""

    # cap: a row cap of at least len(kappa), moot for the capped oracle
    @pytest.mark.parametrize("theta, sigma, cap, expected", [
        ((), (), 3, [()]),                            # empty meet
        ((1,), (), 3, []),                            # empty meet, bound past it
        ((4,), (1, 1, 1, 1), 4, []),                  # least = 3 > |meet| = 1
        ((3, 3, 1, 1, 1), (5, 4), 2, []),             # theta_5 > 0 needs a third row
        ((2, 1, 1), (4,), 1, []),                     # theta_3 > 0 needs a second row
        ((2, 1), (2, 1), 2, [(2, 1), (2,), (1, 1), (1,), ()]),  # all-zero bound
    ])
    def test_edge_cases(self, theta, sigma, cap, expected):
        assert cap >= min(len(theta), len(sigma))
        assert _pair_alphas(theta, sigma, 0, size(theta)) == expected
        assert oracle_pair_alphas(theta, sigma) == expected
        assert oracle_pair_alphas(theta, sigma, cap) == expected
        if not expected and size(theta) == size(sigma):
            assert koszul_pair_mult(theta, sigma) == 0

    # size windows below, inside and past the floor |theta| - |kappa|,
    # past |kappa|, and empty ones, beside the whole window
    WINDOWS = [(0, 0), (2, 1), (2, 2), (1, 3), (4, 6), (-2, 1), (6, 99),
               (0, 99), (9, 20)]

    def test_matches_filtered_subpartitions(self):
        shapes = [lam for n in range(7) for lam in partitions_in_box(5, 4, n)]
        for theta in shapes:
            for sigma in shapes:
                floor = size(theta) - sum(map(min, theta, sigma))
                windows = self.WINDOWS + [(floor - 2, floor - 1), (floor - 1, floor)]
                every = oracle_cut_pair_alphas(theta, sigma)
                assert _pair_alphas(theta, sigma, 0, size(theta)) == every, (theta, sigma)
                for least, most in windows:
                    want = [a for a in every if least <= size(a) <= most]
                    assert _pair_alphas(theta, sigma, least, most) == want, \
                        (theta, sigma, least, most)

    def test_first_column_cut(self):
        # theta/(1,1) has a row of 2, sigma/(1,1) one nonempty column
        assert oracle_pair_alphas((3, 1), (2, 2)) == [(2, 1), (2,), (1, 1), (1,)]
        assert _pair_alphas((3, 1), (2, 2), 0, 4) == [(2, 1), (2,), (1,)]
        assert first_parts((3, 1), (1, 1)) == (2, 2)
        assert first_parts((2, 2), (1, 1)) == (1, 1)

    def test_cut_drops_only_zero_terms(self):
        # on every pair of partitions of n <= 10: the generator drops
        # exactly the alpha whose skew shapes fail the cut, and each of
        # them has a zero term
        dropped = 0
        for n in range(11):
            shapes = partitions_in_box(n, n, n)
            for theta in shapes:
                for sigma in shapes:
                    kept = _pair_alphas(theta, sigma, 0, n)
                    assert kept == oracle_cut_pair_alphas(theta, sigma), (theta, sigma)
                    rows = min(len(theta), len(sigma))
                    for alpha in set(oracle_pair_alphas(theta, sigma)) - set(kept):
                        dropped += 1
                        e1 = _skew_expand(theta, alpha, rows)
                        e2 = _skew_expand(sigma, alpha, rows)
                        assert not any(e2.get(b) for b in e1), (theta, sigma, alpha)
        assert dropped == 3346

    def test_failing_prefixes_are_not_extended(self):
        # the middle levels of the m=6 scan of (2, 1, 2): the generator's
        # recursion stops within three rows on every pair; with the cut
        # tested only on complete alphas it makes 3599 calls
        p = stromme(QuotSetup(2, 1, 2, m=6))
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is rec_code:
                calls[-1] += 1

        rec_code = next(c for c in _pair_alphas.__code__.co_consts
                        if getattr(c, "co_name", None) == "rec")
        for _, f1, f2 in pipeline._candidate_pairs(p, InsertionSpec()):
            half = (size(f2.lam) + 1) // 2
            calls.append(0)
            sys.setprofile(count)
            try:
                kept = _pair_alphas(f1.dag, f2.lam, half, half)
            finally:
                sys.setprofile(None)
            assert kept == ([()] if not f2.lam else []), (f1.lam, f2.lam)
        assert len(calls) == 15 and max(calls) <= 3 and sum(calls) <= 350, calls


class TestPairLevels:
    """The pair sum split by |beta| = j into levels P_j, on every pair of
    partitions of n <= 8: `koszul_pair_mult` decides a pair on its middle
    level and sums half the levels."""

    PAIRS = [(theta, sigma) for n in range(9)
             for theta in partitions_in_box(n, n, n)
             for sigma in partitions_in_box(n, n, n)]

    def test_levels_symmetric_unimodal_and_decided_in_the_middle(self):
        assert len(self.PAIRS) == 919
        for theta, sigma in self.PAIRS:
            n = size(theta)
            levels = graded_pair_mult(theta, sigma)
            assert levels == levels[::-1], (theta, sigma, levels)
            assert all(levels[j] <= levels[j + 1] for j in range(n // 2)), \
                (theta, sigma, levels)
            assert bool(levels[n // 2]) == bool(sum(levels)), (theta, sigma, levels)
            assert koszul_pair_mult(theta, sigma) == sum(levels), (theta, sigma)


class TestRowCapNeverBinds:
    """`koszul_pair_mult` takes no row cap.  The pair sum of
    S^{mu^dag}(B2^dual + B2^dual) caps alpha and beta at r2 = rank B2
    rows, and that cap is moot exactly when it is at least len(kappa) =
    min(len(theta), len(sigma)); it is, because every sigma the pipeline
    hands the kernel is a factor-2 survivor, which lies in the r2-row
    box.  `koszul_terms` reads its sigma off the expansion, which must
    put each in the r2 x 2k1 box with no filter."""

    SETUPS = [QuotSetup(2, 1, 1, m=3), QuotSetup(2, 1, 2, m=4),
              QuotSetup(3, 1, 1, m=2), QuotSetup(3, 2, 1, m=2)]
    # the scans also run on the bench's scan setup, whose survivor lists
    # and pair kernel see far more sigma than the small setups
    SCAN_SETUPS = SETUPS + [QuotSetup(2, 1, 2, m=6)]

    def test_every_sigma_has_at_most_r2_rows(self, monkeypatch):
        calls = []

        def recorded(theta, sigma):
            calls.append((p.r2, sigma))
            return koszul_pair_mult(theta, sigma)

        monkeypatch.setattr(pipeline, "koszul_pair_mult", recorded)
        monkeypatch.setattr(pipeline, "_SURVIVOR_CACHE", {})
        survivors, listed = [], []
        for setup in self.SETUPS:
            p = stromme(setup)
            for t in range(p.rank_k + 1):
                listed.extend((p.r2, 2 * p.k1, T.sigma) for T in koszul_terms(p, t))
        for setup in self.SCAN_SETUPS:
            p = stromme(setup)
            for ins in (InsertionSpec(), InsertionSpec(a2=((1,),), b2=((1,),)),
                        InsertionSpec(b1=((1,) + (0,) * (p.r1 - 2) + (-1,),))):
                e1_page(p, ins)
                _, _, a2, b2 = ins.key()
                for t in range(p.rank_k + 1):
                    survivors.extend((p.r2, s.lam)
                                     for s in pipeline._factor_survivors(p, 2, a2, b2, t))
        sigmas = calls + survivors
        assert len(sigmas) > 1000
        assert all(len(sigma) <= r2 for r2, sigma in sigmas)
        assert any(len(sigma) == r2 for r2, sigma in calls)  # the bound is reached
        assert len(listed) > 1000
        assert all(len(sigma) <= r2 and part(sigma, 1) <= cols for r2, cols, sigma in listed)
        assert any(len(sigma) == r2 for r2, _, sigma in listed)
        assert any(part(sigma, 1) == cols for _, cols, sigma in listed)


class TestSkewMemoKey:
    """The pair loop and `skew_expand` share one memo and one key."""

    PAIRS = [((2, 2, 1, 1), (2, 2, 2)), ((3, 2, 1), (2, 2, 1, 1)),
             ((2, 2, 1, 1), (3, 1, 1, 1)), ((4, 2), (3, 3)),
             ((2, 2, 1, 1), (2, 2, 1, 1)), ((3, 2, 1), (3, 2, 1))]

    @staticmethod
    def lr_pair_mult(theta, sigma):
        # sum over alpha, beta of c^theta_{alpha,beta} c^sigma_{alpha,beta},
        # by the strip-chain oracle, which shares no memo with the skew
        # filler
        meet = tuple(min(a, b) for a, b in zip(theta, sigma))
        subs = subpartitions(meet)
        total = 0
        for alpha in subs:
            for beta in subs:
                if size(alpha) + size(beta) == size(theta):
                    exp = strip_lr_expand(alpha, beta)
                    total += exp.get(theta, 0) * exp.get(sigma, 0)
        return total

    def test_cold_and_warm_memo_agree(self):
        cold = []
        for pair in self.PAIRS:
            schur._SKEW_CACHE.clear()
            cold.append(koszul_pair_mult(*pair))
        assert cold == [self.lr_pair_mult(*pair) for pair in self.PAIRS]
        # warm: uncapped expansions of every alpha, then the other pairs
        schur._SKEW_CACHE.clear()
        for pair in self.PAIRS:
            for lam in pair:
                for alpha in subpartitions(lam):
                    skew_expand(lam, alpha)
        for pair, expected in zip(self.PAIRS, cold):
            for other in self.PAIRS:
                if other != pair:
                    koszul_pair_mult(*other)
            assert koszul_pair_mult(*pair) == expected, pair

    def test_capped_reads_filter_the_full_expansion(self):
        # the key keeps a binding cap and drops a moot one: with binding
        # caps read first or last, every capped read is the full
        # expansion less its constituents with more rows than the cap
        shapes = sorted({lam for pair in self.PAIRS for lam in pair})
        for order in (1, -1):
            schur._SKEW_CACHE.clear()
            for lam in shapes:
                for nu in subpartitions(lam):
                    caps = range(size(lam) - size(nu) + 2)[::order]
                    got = {cap: _skew_expand(lam, nu, cap) for cap in caps}
                    full = skew_expand(lam, nu)
                    for cap, exp in got.items():
                        assert exp == {b: c for b, c in full.items() if len(b) <= cap}, \
                            (lam, nu, cap, order)

    def test_only_the_memo_owners_fill(self, monkeypatch):
        # the pair loop reads skew expansions through `_skew_expand`, so
        # no second copy of the skew memo's key and fill logic exists
        callers = set()
        fill = schur._skew_fill

        def watched(*args, **kwargs):
            callers.add(sys._getframe(1).f_code.co_name)
            return fill(*args, **kwargs)

        monkeypatch.setattr(schur, "_skew_fill", watched)
        for memo in ("_SKEW_CACHE", "_LR_EXPAND_CACHE", "_SUM_CACHE"):
            monkeypatch.setattr(schur, memo, {})
        monkeypatch.setattr(pipeline, "_SURVIVOR_CACHE", {})
        for pair in self.PAIRS:
            koszul_pair_mult(*pair)
        e1_page(stromme(QuotSetup(2, 1, 1, m=3)),
                InsertionSpec(a1=((1,), (0, -1)), b1=((2, 1),), a2=((1,),), b2=((1,),)))
        assert callers <= {"_skew_expand", "lr_expand", "lr"}, callers
        assert "_skew_expand" in callers


class TestSurvivorMemo:
    """Pages must not depend on what the factor-survivor memo already holds."""

    SETUPS = [QuotSetup(2, 1, 1, m=3), QuotSetup(2, 1, 2, m=4)]

    @staticmethod
    def _target(p) -> InsertionSpec:
        return InsertionSpec(b1=((1,) + (0,) * (p.r1 - 2) + (-1,),), a2=((1,),))

    @staticmethod
    def _page(p, ins):
        return e1_page(p, ins).entries, contributions(p, ins)

    @pytest.mark.parametrize("setup", SETUPS)
    def test_cold_warm_and_entry_forms_agree(self, setup):
        p = stromme(setup)
        target = self._target(p)
        # each insertion shares one factor's insertions with another, and
        # the empty one has the same (empty) insertions on both factors
        pages = [InsertionSpec(),
                 InsertionSpec(b1=((0,) * (p.r1 - 1) + (-1,),), b2=((1,),)),
                 InsertionSpec(b1=target.b1), InsertionSpec(a2=target.a2),
                 InsertionSpec(a2=target.a2, b2=((1,),)), target]
        cold = []
        for ins in pages:
            pipeline._SURVIVOR_CACHE.clear()
            cold.append(self._page(p, ins))
        assert cold[-1][0]
        pipeline._SURVIVOR_CACHE.clear()
        for other in self.SETUPS:
            self._page(stromme(other), self._target(stromme(other)))
        for ins, want in zip(pages, cold):
            assert self._page(p, ins) == want, ins
        # lists with the same entries as the tuples reuse their entries
        held = len(pipeline._SURVIVOR_CACHE)
        as_lists = InsertionSpec(b1=tuple(map(list, target.b1)), a2=([1],))
        assert self._page(p, as_lists) == cold[-1]
        assert len(pipeline._SURVIVOR_CACHE) == held


class TestPool:
    """`e1_page` computes every page in this process."""

    def test_no_page_starts_a_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a page started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        # the largest page the bench builds: the thm41 sweep at m = 5
        setup = QuotSetup(2, 1, 1, m=5)
        p = stromme(setup)
        ins = InsertionSpec(b1=(as_weight((1,), p.r1),), b2=(as_weight((1,), p.r2),))
        assert len(pipeline._candidate_pairs(p, ins)) == 39
        assert verify_thm41(setup, (1,), (1,)).matches
        # the m=8 scan of (2, 1, 2); its 1511 candidate pairs are pinned in
        # TestScans
        assert e1_page(stromme(QuotSetup(2, 1, 2, m=8))).entries


def oracle_factor_survivors(params, factor, a, b, t):
    """The survivor list by one `coh_bundle` call per Koszul partition,
    with the partition first on its side."""
    out = []
    if factor == 1:
        for mu in partitions_in_box(params.k1, 2 * params.r2, t):
            table = coh_bundle(params.gr1, (mu,) + a, b)
            if table:
                out.append((mu, conjugate(mu), table))
    else:
        for sigma in partitions_in_box(params.r2, min(2 * params.k1, t), t):
            dual = dual_entries(as_weight(sigma, params.r2))
            table = coh_bundle(GrSpec(params.k2, params.n2), a, (dual,) + b)
            if table:
                out.append((sigma, conjugate(sigma), table))
    return out


def oracle_candidate_pairs(params):
    """(t, mu, sigma) of the page without insertions, built one t at a
    time on the embedding's own Grassmannians: mu on A1 of Gr(k1, n1)
    against the trivial chi-side summand, dead sets {1 + j - chi_j};
    sigma^dual on B2 of Gr(k2, n2) against the trivial rho-side summand,
    dead sets {rho_i + k2 - i}.  Each factor's candidates of size t come
    from the per-size oracle walk `collision_free`, kept when
    `coh_duals_nonempty`, joined by `pair_possible` on the pair and on its
    complement pair (`dual_pair_possible`) in the order mu, then sigma."""
    gr1, gr2 = params.gr1, GrSpec(params.k2, params.n2)
    chis = dual_side(expand_side((), gr1.quotient_rank))
    rhos = dual_side(expand_side((), gr2.k))
    factors = [
        (params.k1, 2 * params.r2,
         [frozenset(1 + j - x for j, x in enumerate(chi)) for chi, _ in chis],
         lambda mu: coh_duals_nonempty(
             gr1.n, [(dual_entries(as_weight(mu, gr1.k)), 1)], chis)),
        (params.r2, 2 * params.k1,
         [frozenset(x + gr2.k - i for i, x in enumerate(rho)) for rho, _ in rhos],
         lambda sigma: coh_duals_nonempty(
             gr2.n, rhos, [(as_weight(sigma, gr2.quotient_rank), 1)])),
    ]
    lists = {}
    for factor, (rows, cols, dead, survives) in enumerate(factors, 1):
        lists[factor] = [
            [(lam, conjugate(lam)) for lam in collision_free(rows, min(cols, t), t, dead)
             if survives(lam)]
            for t in range(params.rank_k + 1)]
    boxes = (params.k1, 2 * params.r2), (params.r2, 2 * params.k1)
    return [(t, mu, sigma) for t in range(params.rank_k + 1)
            for mu, _ in lists[1][t] for sigma, _ in lists[2][t]
            if dual_pair_possible(mu, boxes[0], sigma, boxes[1])]


def materialized(survivors):
    """The survivors of a candidate list whose table is nonempty
    (`_Survivor.alive`), each deferred table built: [(lam, lam', table)]."""
    return [(s.lam, s.dag, s.table()) for s in survivors if s.alive()]


def assert_lists_oracle(got, want, where):
    """A candidate list holds the oracle's survivors, in order, and its
    alive survivors are exactly those."""
    assert materialized(got) == want, where
    lams = [s.lam for s in got]
    assert set(lams) >= {lam for lam, _, _ in want}, where


@contextmanager
def recorded_candidates():
    """Collects the candidate partitions `pipeline._factor_survivors` gets
    from its walks of a box, the ones it then tests for a surviving term:
    one {size: candidates} per walk."""
    real, walks = pipeline._collision_free_by_size, []

    def recorded(*args):
        out = real(*args)
        walks.append(out)
        return out

    pipeline._collision_free_by_size = recorded
    try:
        yield walks
    finally:
        pipeline._collision_free_by_size = real


@contextmanager
def counted_tables():
    """Collects the arguments of every `coh_duals` call the pipeline makes."""
    real, calls = pipeline.coh_duals, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    pipeline.coh_duals = counted
    try:
        yield calls
    finally:
        pipeline.coh_duals = real


# embeddings with n <= 3, d <= 2, m <= d + 2 and k1 * r2 <= 8, so that
# every box is small; k1 = 0 among them
SMALL_PARAMS = [p for p in (stromme(QuotSetup(n, r, d, m=m))
                            for n in (2, 3) for r in range(1, n) for d in range(3)
                            for m in range(max(d, 1), d + 3))
                if p.k1 * p.r2 <= 8]


@st.composite
def survivor_cases(draw):
    """(params, insertions): a small setup and zero to three weights in each
    slot, each a partition (at times one row too long for its bundle), a
    determinant power or an exact-length weight with mixed signs."""
    p = draw(st.sampled_from(SMALL_PARAMS))

    def slot(rank):
        out = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["partition", "too long", "det", "mixed"]))
            if kind == "det":
                out.append((draw(st.integers(-2, 2)),) * rank)
            elif kind == "mixed":
                entries = draw(st.lists(st.integers(-2, 2), min_size=rank,
                                        max_size=rank))
                out.append(tuple(sorted(entries, reverse=True)))
            else:
                rows = rank + 1 if kind == "too long" else draw(st.integers(0, rank))
                parts = draw(st.lists(st.integers(1, 2), min_size=rows, max_size=rows))
                out.append(tuple(sorted(parts, reverse=True)))
        return tuple(out)

    return p, InsertionSpec(slot(p.k1), slot(p.r1), slot(p.k2), slot(p.r2))


# dead lists for the walk: none alive, nothing dead, and small sets that
# hold zero-row values (0, -1, ...) and nonzero-row values
WALK_DEAD = [[], [frozenset()], [frozenset({0})], [frozenset({-1})],
             [frozenset({1})], [frozenset({2, -2})], [frozenset({0}), frozenset({-3})],
             [frozenset({1, -1}), frozenset({3, 0}), frozenset({-4, 2})],
             [frozenset({4, 1, -2, -5}), frozenset({-1, 5})]]


def walk_criterion(lam, rows, dead):
    """Some set in `dead` misses lam_i - i in every row i < rows."""
    return any(all(part(lam, i + 1) - i not in d for i in range(rows)) for d in dead)


class TestCollisionWalk:
    """One walk of a box against the per-size oracle walk and against
    full enumeration."""

    @pytest.mark.parametrize("dead", WALK_DEAD)
    def test_every_box_matches_per_size_oracle(self, dead):
        hits = 0
        for rows in range(7):
            for cols in range(7):
                walk = pipeline._collision_free_by_size(rows, cols, dead)
                for total in range(-1, rows * cols + 2):
                    want = collision_free(rows, cols, total, dead)
                    assert walk.get(total, []) == want, (rows, cols, total)
                filtered = {}
                for lam in partitions_in_box(rows, cols):
                    if walk_criterion(lam, rows, dead):
                        filtered.setdefault(size(lam), []).append(lam)
                assert walk == filtered, (rows, cols)
                hits += sum(map(len, walk.values()))
        assert hits or dead == []

    @pytest.mark.parametrize("dead", WALK_DEAD)
    def test_cap_keeps_the_smaller_sizes(self, dead):
        rows, cols = 4, 5
        whole = pipeline._collision_free_by_size(rows, cols, dead)
        for cap in range(-1, rows * cols + 1):
            assert pipeline._collision_free_by_size(rows, cols, dead, cap) == \
                {s: lams for s, lams in whole.items() if s <= cap}, cap


class TestFactorSurvivors:
    """Prebuilt side expansions against one coh_bundle per partition."""

    @staticmethod
    def _insertions(p):
        def mixed(rank):  # S^(1,0,...,0,-1): the adjoint
            return (1,) + (0,) * (rank - 2) + (-1,)

        def too_long(rank):
            return (1,) * (rank + 1)

        return [
            InsertionSpec(),
            # every slot, two weights on a side, partitions and
            # exact-length weights
            InsertionSpec(a1=((1,), (1, 1)), b1=(mixed(p.r1),),
                          a2=((2,), (1,) + (0,) * (p.k2 - 1)),
                          b2=((1,), mixed(p.r2))),
            InsertionSpec(a1=((0,) * (p.k1 - 1) + (-1,),), b1=((1,), (1,)),
                          a2=(mixed(p.k2),), b2=((2, 1),)),
            # a too-long partition beside the Koszul partition ...
            InsertionSpec(a1=((1,), too_long(p.k1)), b2=(too_long(p.r2),)),
            # ... and on the side without it
            InsertionSpec(a1=((1,),), b1=(too_long(p.r1),),
                          a2=(too_long(p.k2),), b2=((1,),)),
        ]

    @pytest.mark.parametrize("setup", [QuotSetup(2, 1, 1, m=3),
                                       QuotSetup(2, 1, 2, m=4)])
    def test_matches_per_partition_oracle(self, setup):
        p = stromme(setup)
        pipeline._SURVIVOR_CACHE.clear()
        survived = 0
        for ins in self._insertions(p):
            a1, b1, a2, b2 = ins.key()
            for t in range(p.rank_k + 1):
                for factor, a, b, raw in ((1, a1, b1, (ins.a1, ins.b1)),
                                          (2, a2, b2, (ins.a2, ins.b2))):
                    got = pipeline._factor_survivors(p, factor, a, b, t)
                    assert_lists_oracle(got, oracle_factor_survivors(p, factor, *raw, t),
                                        (ins, factor, t))
                    survived += len(materialized(got))
        assert survived

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(survivor_cases())
    def test_generated_lists_match_oracle(self, case):
        p, ins = case
        pipeline._SURVIVOR_CACHE.clear()
        a1, b1, a2, b2 = ins.key()
        for factor, a, b, raw in ((1, a1, b1, (ins.a1, ins.b1)),
                                  (2, a2, b2, (ins.a2, ins.b2))):
            with recorded_candidates() as walks:
                for t in range(p.rank_k + 1):
                    got = pipeline._factor_survivors(p, factor, a, b, t)
                    want = oracle_factor_survivors(p, factor, *raw, t)
                    assert_lists_oracle(got, want, (ins, factor, t))
                    # the list is the walk's output; with nothing beside the
                    # Koszul partition the criterion is exact, so every
                    # candidate survives
                    candidates = walks[0].get(t, []) if walks else []
                    assert [s.lam for s in got] == candidates, (ins, factor, t)
                    beside = a if factor == 1 else b
                    assert beside or candidates == [lam for lam, _, _ in want], \
                        (ins, factor, t)
            # one walk serves every t of a factor
            assert len(walks) <= 1, (ins, factor)

    @pytest.mark.parametrize("setup", [QuotSetup(2, 1, 1, m=3),
                                       QuotSetup(2, 1, 2, m=4),
                                       QuotSetup(3, 1, 1, m=2),
                                       QuotSetup(3, 2, 1, m=1)])
    def test_no_insertion_is_the_index_criterion(self, setup):
        # with nothing beside the Koszul partition the collision criterion
        # is exact: every candidate survives, and the survivors are the
        # box partitions with a t-index, each with its single degree
        # (`partitions.t_index`)
        p = stromme(setup)
        pipeline._SURVIVOR_CACHE.clear()
        for factor, rows, cols, q in ((1, p.k1, 2 * p.r2, p.r1),
                                      (2, p.r2, 2 * p.k1, p.k2)):
            with recorded_candidates() as walks:
                for t in range(p.rank_k + 1):
                    got = pipeline._factor_survivors(p, factor, (), (), t)
                    want = [lam for lam in partitions_in_box(rows, cols, t)
                            if t_index(lam, q) is not None]
                    assert walks[0].get(t, []) == want, (factor, t)
                    assert [s.lam for s in got] == want, (factor, t)
                    for s in got:
                        assert list(s.table()) == [q * t_index(s.lam, q)], (factor, s.lam)
            assert len(walks) == 1, factor

    def test_no_insertion_skips_the_nonempty_test(self, monkeypatch):
        # with nothing beside the Koszul partition on either factor, no
        # candidate is tested for a surviving term; an a1 insertion sits
        # beside mu, so the first factor's candidates are tested
        calls = []

        def counted(*args):
            calls.append(args)
            return coh_duals_nonempty(*args)

        monkeypatch.setattr(pipeline, "coh_duals_nonempty", counted)
        p = stromme(QuotSetup(2, 1, 2, m=6))
        pipeline._SURVIVOR_CACHE.clear()
        assert e1_page(p).entries == {(0, 0): 1}
        assert calls == []
        e1_page(p, InsertionSpec(a1=((1,),)))
        assert len(calls) > 0

    def test_nonempty_tests_only_inside_joined_pairs(self, monkeypatch):
        # the thm41 sweep's largest page: insertions beside both Koszul
        # partitions, so candidates are tested for a surviving term, but
        # only those in a pair that passed every key and meet test, each
        # once (330 tests when every candidate was tested)
        calls = []

        def counted(*args):
            calls.append(args)
            return coh_duals_nonempty(*args)

        monkeypatch.setattr(pipeline, "coh_duals_nonempty", counted)
        monkeypatch.setattr(pipeline, "_SURVIVOR_CACHE", {})
        setup = QuotSetup(2, 1, 1, m=5)
        assert verify_thm41(setup, (1,), (1,)).matches
        assert 0 < len(calls) <= 56
        verify_thm41(setup, (1,), (1,))
        assert len(calls) <= 56

    def test_tables_only_for_nonzero_pairs(self):
        # the m=6 scan of (2, 1, 2) joins its survivors into 15 candidate
        # pairs, one of them nonzero: only that pair's two factor tables
        # are built, and a second page reuses them
        p = stromme(QuotSetup(2, 1, 2, m=6))
        pipeline._SURVIVOR_CACHE.clear()
        with counted_tables() as calls:
            pairs = pipeline._candidate_pairs(p, InsertionSpec())
            assert calls == []
            page = e1_page(p)
            assert e1_page(p) == page
        assert len(pairs) == 15
        # 1215 survivors at the t the page reads (the sigma lists only where
        # some mu survives); the two walks keep 1221 over every t
        read = 0
        for t in range(p.rank_k + 1):
            firsts = pipeline._factor_survivors(p, 1, (), (), t)
            if firsts:
                read += len(firsts) + len(pipeline._factor_survivors(p, 2, (), (), t))
        assert read == 1215
        assert sum(len(lst) for lists in pipeline._SURVIVOR_CACHE.values()
                   for lst in lists.values()) == 1221
        assert contributions(p) == {(0, 0): [((), (), 1, 1)]}
        assert len(calls) == 2
        assert [(s.lam, s.built) for factor in (1, 2)
                for s in pipeline._factor_survivors(p, factor, (), (), 0)] \
            == [((), {0: 1}), ((), {0: 1})]

    @pytest.mark.parametrize("m", [6, 7])
    def test_candidate_order_matches_per_t_oracle(self, m):
        p = stromme(QuotSetup(2, 1, 2, m=m))
        pipeline._SURVIVOR_CACHE.clear()
        got = [(t, f1.lam, f2.lam)
               for t, f1, f2 in pipeline._candidate_pairs(p, InsertionSpec())]
        assert got == oracle_candidate_pairs(p)
        assert len(got) == {6: 15, 7: 164}[m]

    def test_misordered_weight_raises(self):
        p = stromme(QuotSetup(2, 1, 1, m=3))
        for factor in (1, 2):
            for a, b in ((((0, 1),), ()), ((), ((0, 1),))):
                with pytest.raises(ValueError):
                    pipeline._factor_survivors(p, factor, a, b, 2)


class TestResolvePage:
    def test_single_entry(self):
        rep = resolve_page({(0, 0): 1})
        assert rep.exact and rep.table == {0: 1} and rep.degenerate

    def test_empty(self):
        rep = resolve_page({})
        assert rep.exact and rep.table == {} and rep.euler == 0

    def test_no_structural_pair_multiple_degrees(self):
        # same column: no differential can connect
        rep = resolve_page({(0, 0): 5, (0, 1): 7})
        assert rep.exact and rep.table == {0: 5, 1: 7} and rep.degenerate

    def test_forced_injectivity_shape(self):
        # the sharp-example shape: 28 at total degree -1 must inject
        rep = resolve_page({(-24, 23): 28, (0, 0): 210})
        assert rep.exact and rep.table == {0: 182}
        assert not rep.degenerate and rep.euler == 182

    def test_adjacent_pair_bounds(self):
        rep = resolve_page({(-12, 13): 63, (-11, 13): 72})
        assert not rep.exact
        assert rep.upper == {1: 63, 2: 72}
        assert rep.lower == {2: 9}
        assert (2, 1, 9) in rep.relations

    def test_euler_pinning(self):
        # two entries, one killable pair, but one side pinned to zero by
        # matching dimensions: 5 at -1 must kill 5 of 5 at 0
        rep = resolve_page({(-3, 2): 5, (0, 0): 5})
        assert rep.exact and rep.table == {} and rep.euler == 0

    def test_impossible_negative_page(self):
        with pytest.raises(ArithmeticError):
            resolve_page({(-3, 2): 5})  # total degree -1, nothing to absorb it

    def test_chain_of_three(self):
        # degrees 0,1,2 with possible d1 chain: bounds only
        rep = resolve_page({(0, 0): 5, (1, 0): 3, (2, 0): 4})
        assert not rep.exact
        assert rep.upper == {0: 5, 1: 3, 2: 4}
        assert rep.lower == {0: 2, 2: 1}

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(-6, 2), st.integers(0, 8)),
                           st.integers(0, 5), max_size=8))
    @example({(-1, 5): 1, (0, 4): 1, (0, 5): 2})  # a source in the last target column
    @example({(0, 4): 2, (0, 5): 1, (1, 4): 1})  # a target in the first source column
    def test_matches_pairwise_partners(self, cells):
        # the column rule for differential partners against testing every
        # source and target pair
        try:
            want = resolve_page_pairwise(cells)
        except InconsistencyError:
            with pytest.raises(InconsistencyError):
                resolve_page(cells)
        else:
            assert resolve_page(cells) == want


class TestScans:
    def test_structure_sheaf_five_setups(self):
        for args in [(2, 1, 1, (), 1), (2, 1, 1, (), 2), (3, 1, 1, (), 1),
                     (3, 2, 1, (), 1), (2, 1, 2, (), 3)]:
            n, r, d, s, m = args
            page = e1_page(stromme(QuotSetup(n, r, d, s, m)))
            assert page.entries == {(0, 0): 1}, args
            rep = assemble(page)
            assert rep.euler == 1 and rep.exact and rep.table == {0: 1}

    def test_thm41_closed_form_euler(self):
        # euler equals product of section-space Schur dimensions
        setup = QuotSetup(2, 1, 1, m=2)
        p = stromme(setup)
        page = e1_page(p, InsertionSpec(b1=((1,),), b2=((1,),)))
        assert page.euler() == p.n1 * p.n2 == 24

    def test_misordered_insertion_is_an_error(self):
        # only a weight too long for its bundle means the zero bundle
        p = stromme(QuotSetup(2, 1, 1, m=1))
        with pytest.raises(ValueError):
            e1_page(p, InsertionSpec(b1=((1, 2),)))
        assert e1_page(p, InsertionSpec(b1=((1, 1, 1),))).entries == {}
        assert e1_page(p, InsertionSpec(b1=((2, 1),))).entries

    @pytest.mark.parametrize("w", [(1, 2), (3, 5, -1), (0, -2, -1)])
    def test_misordered_inside_a_sign_block(self, w):
        # as_weight alone checks the order inside each sign block
        p = stromme(QuotSetup(2, 1, 1, m=3))
        for check in (lambda: as_weight(w, len(w)),
                      lambda: coh_bundle(GrSpec(1, len(w) + 1), (), (w,)),
                      lambda: weight_dim(w, len(w)),
                      lambda: e1_page(p, InsertionSpec(b1=(w,)))):
            with pytest.raises(ValueError) as err:
                check()
            assert not isinstance(err.value, WeightLengthError)

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_scan_pages_pinned(self, m):
        # the bench scan of (2, 1, 2) and the next two twists: only t = 0
        # survives, from the trivial pair
        p = stromme(QuotSetup(2, 1, 2, m=m))
        candidates = {6: 15, 7: 164, 8: 1511}[m]
        assert len(pipeline._candidate_pairs(p, InsertionSpec())) == candidates
        assert e1_page(p).entries == {(0, 0): 1}
        assert contributions(p) == {(0, 0): [((), (), 1, 1)]}

    def test_diagnostics_present(self):
        setup = QuotSetup(3, 1, 3, m=3)
        p, ins = stromme(setup), InsertionSpec(b1=((0, 0, 0, 0, 0, -2),))
        assert e1_page(p, ins).entries == {(12, 13): 63, (11, 13): 72}
        terms = contributions(p, ins)
        assert terms[(12, 13)][0][:2] == ((8, 2, 2), (6, 1, 1, 1, 1, 1, 1))
        assert terms[(11, 13)][0][:2] == ((7, 2, 2), (6, 1, 1, 1, 1, 1))


class TestVerifiers:
    def test_thm41_part_ii(self):
        for m in (2, 3):
            setup = QuotSetup(2, 1, 1, m=m)
            p = stromme(setup)
            v = verify_thm41(setup, (1,), (1,))
            assert v.hypotheses_hold and v.matches
            assert v.report.table == {0: p.n1 * p.n2}

    def test_thm41_part_i(self):
        setup = QuotSetup(3, 1, 1, m=1)
        v = verify_thm41(setup, (0, -1), ())
        assert v.hypotheses_hold and v.matches and v.report.is_zero()

    def test_thm41_vacuous_bookkeeping(self):
        # first-part hypothesis fails: delta_1 + nu_1 = 2 = n - r
        setup = QuotSetup(3, 1, 1, m=1)
        v = verify_thm41(setup, (0, -2), ())
        assert not v.hypotheses_hold and v.matches is None and v.ok
        assert v.notes

    def test_thm41_randomized_within_hypotheses(self):
        # partition insertions within the size bound: scans agree with the
        # closed form on every valid random draw
        rng = random.Random(808)
        checked = 0
        while checked < 15:
            n = rng.randrange(2, 4)
            r = rng.randrange(1, n)
            d = rng.randrange(1, 3)
            m = d + rng.randrange(1, 3)
            setup = QuotSetup(n, r, d, m=m)
            params = stromme(setup)
            if params.rank_k > 12:
                continue
            gamma = partition(sorted((rng.randrange(0, 3) for _ in range(2)),
                                     reverse=True))
            lam = partition(sorted((rng.randrange(0, 3) for _ in range(2)),
                                   reverse=True))
            if (n - r) * (sum(gamma) + sum(lam)) >= n * d + n:
                continue
            v = verify_thm41(setup, gamma, lam)
            assert v.hypotheses_hold
            assert v.matches, (setup, gamma, lam, v.report)
            checked += 1

    def test_prop47(self):
        v = verify_prop47(QuotSetup(2, 1, 1, m=1), (2,), (1,))
        assert v.matches and v.report.table == {0: 12}
        v = verify_prop47(QuotSetup(2, 1, 1, m=1), (), ())
        assert v.matches and v.report.table == {0: 1}
        setup = QuotSetup(3, 1, 1, m=1)
        r1 = stromme(setup).r1
        v = verify_prop47(setup, (0,) * (r1 - 1) + (-1,), ())
        assert v.matches
        top = v.report.max_degree()
        assert top is None or top <= 1


class TestExtAndClosedForm:
    def test_ext_anchors(self):
        setup = QuotSetup(3, 1, 1, m=2)
        assert ext_table(setup, (1,), (1,)).table == {0: 1}
        assert ext_table(setup, (1,), ()).table == {}
        res = ext_table(setup, (), (1,))
        assert res.table == {0: stromme(setup).n1}

    def test_ext_hypothesis_flags(self):
        setup = QuotSetup(3, 1, 1, m=2)
        res = ext_table(setup, (2,), ())   # nu_1 = n - r: flagged, not fatal
        assert not res.hypotheses_hold and res.notes

    def test_closed_form_examples(self):
        assert closed_form_multi(2, 1, 1, (), [(-2, (1,))]).table == {1: 2}
        assert closed_form_multi(2, 1, 1, (), []).table == {0: 1}
        assert closed_form_multi(2, 1, 1, (), [(0, (1,))]).table == {0: 2}

    def test_closed_form_degree_location(self):
        cf = closed_form_multi(3, 1, 2, (), [(-2, (2, 1)), (1, (1,))])
        # D = |(2,1)| = 3; dims: S^{(2,1)^dag}(H^1(O(-2)^3)) x S^{(1)}(H^0(O(1)^3))
        assert cf.degree == 3
        assert cf.table == {3: schur_dim((2, 1), 3) * 6}

    def test_line_and_bundle_coh(self):
        assert line_coh(0) == (1, 0)
        assert line_coh(-1) == (0, 0)
        assert line_coh(-4) == (0, 3)
        assert bundle_coh((0, 2), 1) == (2, 0)
        assert bundle_coh((0, 3), 1) == (2, 1)
