import random
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemmas import horn_predicates, lemma45_check
from oracles import (class_size, kronecker, mn_character, pair_mult_by_characters,
                     partitions_in_box, strip_lr_expand, sum_copies_uncut)
from quotbwb import schur
from quotbwb.partitions import (
    WeightLengthError,
    as_weight,
    conjugate,
    part,
    partition,
    subpartitions,
)
from quotbwb.schur import (
    direct_sum_expand,
    koszul_pair_mult,
    lr,
    lr_expand,
    product_entries,
    schur_dim,
    schur_of_sum_copies,
    skew_expand,
    tensor_entries,
    tensor_expand_many,
    weight_dim,
)

# ---------------------------------------------------------------- oracles


def ssyt_count(lam, n):
    """Count semistandard tableaux of shape lam, entries in 1..n, by DFS."""
    lam = partition(lam)
    if not lam:
        return 1
    rows = len(lam)
    grid = [[0] * lam[i] for i in range(rows)]

    def fill(r, c):
        if r == rows:
            return 1
        nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0 and c < lam[r - 1]:
            lo = max(lo, grid[r - 1][c] + 1)
        total = 0
        for x in range(lo, n + 1):
            grid[r][c] = x
            total += fill(nr, nc)
        return total

    return fill(0, 0)


def naive_lr(alpha, beta, gamma):
    """Brute-force LR count: all letter assignments, all checks at the end."""
    alpha, beta, gamma = partition(alpha), partition(beta), partition(gamma)
    if sum(alpha) + sum(beta) != sum(gamma):
        return 0
    cells = [(r, c) for r in range(1, len(gamma) + 1)
             for c in range(part(alpha, r) + 1, gamma[r - 1] + 1)]
    if any(part(alpha, r) > part(gamma, r) for r in range(1, len(alpha) + 1)):
        return 0
    count = 0
    for letters in product(range(1, len(beta) + 1), repeat=len(cells)):
        grid = dict(zip(cells, letters))
        content = [0] * len(beta)
        for x in letters:
            content[x - 1] += 1
        if tuple(content) != beta:
            continue
        ok = True
        for (r, c), x in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < x:
                ok = False
            if (r + 1, c) in grid and grid[(r + 1, c)] <= x:
                ok = False
        if not ok:
            continue
        word = []
        for r in range(1, len(gamma) + 1):
            for c in range(gamma[r - 1], part(alpha, r), -1):
                word.append(grid[(r, c)])
        seen = [0] * (len(beta) + 1)
        for x in word:
            seen[x] += 1
            if x > 1 and seen[x] > seen[x - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def weyl_dim(entries, n):
    """Weyl dimension product for a dominant weight of length n."""
    w = list(entries) + [0] * (n - len(entries))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def decreasing(entries):
    """entries as a tuple, checked weakly decreasing."""
    entries = tuple(entries)
    assert all(a >= b for a, b in zip(entries, entries[1:])), entries
    return entries


def oracle_weight_tensor_expand(eta, rho, length):
    """Generalized LR expansion with every intermediate weight checked
    weakly decreasing (shift to partitions, expand, shift back): the
    oracle for the entry tuple kernel `tensor_entries`."""
    we, wr = as_weight(eta, length), as_weight(rho, length)
    m = max(0, -min(we, default=0))
    k = max(0, -min(wr, default=0))
    a = partition(x + m for x in we)
    b = partition(x + k for x in wr)
    out = {}
    for gam, mult in lr_expand(a, b, max_rows=length).items():
        w = decreasing(x - (m + k) for x in as_weight(gam, length))
        out[w] = out.get(w, 0) + mult
    return out


def oracle_tensor_expand_many(weights, length):
    """Fold of `oracle_weight_tensor_expand`, starting from the first weight."""
    if not weights:
        return {as_weight((), length): 1}
    acc = {as_weight(weights[0], length): 1}
    for w in weights[1:]:
        nxt = {}
        for base, m0 in acc.items():
            for res, m1 in oracle_weight_tensor_expand(base, w, length).items():
                nxt[res] = nxt.get(res, 0) + m0 * m1
        acc = nxt
    return acc


@st.composite
def weight_lists(draw):
    """(length, weights): length 1-5 and up to three weights, each a
    partition (at times one row too long), a mixed-sign weight of the exact
    length, or a two-entry sequence that is not weakly decreasing."""
    length = draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("partition", "weight", "weight", "misordered")))
        if kind == "partition":
            parts = draw(st.lists(st.integers(1, 3), max_size=length + 1))
            out.append(tuple(sorted(parts, reverse=True)))
        elif kind == "weight":
            entries = draw(st.lists(st.integers(-3, 3), min_size=length,
                                    max_size=length))
            out.append(tuple(sorted(entries, reverse=True)))
        else:
            low = draw(st.integers(-3, 2))
            out.append((low, low + draw(st.integers(1, 3))))
    return length, out


def small_partitions(max_size):
    out = [()]
    for t in range(1, max_size + 1):
        out.extend(partitions_in_box(t, t, t))
    return out


def pieri_cases():
    """(alpha, beta, cap): alpha with up to 4 rows and 12-16 cells times a
    Pieri or near-Pieri beta, every cap from len(alpha) to len(gamma)."""
    for alpha in (a for t in range(12, 17) for a in partitions_in_box(4, 16, t)):
        for beta in ((1,), (2,), (1, 1), (2, 1)):
            for cap in range(len(alpha), len(alpha) + len(beta) + 1):
                yield alpha, beta, cap


# ------------------------------------------------------------- dimensions


class TestDimensions:
    def test_schur_dim_examples(self):
        assert schur_dim((1, 1), 3) == 3
        assert schur_dim((1, 1, 1, 1, 1, 1), 10) == 210
        assert schur_dim((2, 1), 3) == ssyt_count((2, 1), 3)
        assert ssyt_count((2, 1), 3) == 8

    def test_schur_dim_vs_ssyt(self):
        for lam in small_partitions(5):
            for n in range(0, 5):
                assert schur_dim(lam, n) == ssyt_count(lam, n), (lam, n)

    def test_schur_dim_vs_weyl(self):
        for lam in small_partitions(6):
            for n in range(len(lam), 7):
                assert schur_dim(lam, n) == weyl_dim(lam, n)

    def test_weight_dim(self):
        assert weight_dim((-3,) * 10, 10) == 1
        assert weight_dim((1, 0, 0, -1), 4) == 15
        assert weight_dim((0,), 1) == 1
        assert weight_dim((2, 1), 1) == 0
        assert weight_dim((1, 1, 1, 1), 3) == 0

    def test_weight_dim_misordered_raises(self):
        with pytest.raises(ValueError) as err:
            weight_dim((1, 2), 3)
        assert not isinstance(err.value, WeightLengthError)

    def test_weight_dim_vs_weyl(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 6)
            w = tuple(sorted((rng.randrange(-4, 5) for _ in range(n)),
                             reverse=True))
            assert weight_dim(w, n) == weyl_dim(w, n)


# ----------------------------------------------------------------- LR


class TestLR:
    def test_pieri_trivial(self):
        assert lr((1,), (1,), (2,)) == 1
        assert lr((1,), (1,), (1, 1)) == 1
        assert lr((1,), (1,), (3,)) == 0

    def test_derived_example(self):
        assert naive_lr((2, 1), (2, 1), (3, 2, 1)) == 2
        assert lr((2, 1), (2, 1), (3, 2, 1)) == 2

    def test_multiplicity_one_pair_anchor(self):
        mu = (10, 10, 4)
        sigma = (6, 6, 2, 2, 2, 2, 2, 2)
        alpha = (3, 3)
        beta = (3, 3, 2, 2, 2, 2, 2, 2)
        assert lr(alpha, beta, conjugate(mu)) * lr(alpha, beta, sigma) == 1

    def test_against_naive_small(self):
        for gamma in small_partitions(6):
            g = sum(gamma)
            for alpha in small_partitions(g):
                for beta in small_partitions(g - sum(alpha)):
                    if sum(alpha) + sum(beta) != g:
                        continue
                    assert lr(alpha, beta, gamma) == naive_lr(alpha, beta, gamma), \
                        (alpha, beta, gamma)

    def test_symmetries_exhaustive(self):
        for gamma in small_partitions(7):
            g = sum(gamma)
            for alpha in small_partitions(g):
                if sum(alpha) > g:
                    continue
                for beta in small_partitions(g - sum(alpha)):
                    if sum(alpha) + sum(beta) != g:
                        continue
                    c = lr(alpha, beta, gamma)
                    assert c == lr(beta, alpha, gamma)
                    assert c == lr(conjugate(alpha), conjugate(beta), conjugate(gamma))

    def test_lr_expand_examples(self):
        assert lr_expand((1,), (1,)) == {(2,): 1, (1, 1): 1}
        assert lr_expand((2,), (1, 1)) == {(3, 1): 1, (2, 1, 1): 1}
        assert lr_expand((), (3, 1)) == {(3, 1): 1}
        assert lr_expand((3, 1), ()) == {(3, 1): 1}

    def test_lr_expand_matches_lr(self):
        # both routes of the skew engine against the strip-chain oracle
        rng = random.Random(19)
        for _ in range(60):
            alpha = partition(sorted((rng.randrange(0, 4) for _ in range(3)),
                                     reverse=True))
            beta = partition(sorted((rng.randrange(0, 4) for _ in range(3)),
                                    reverse=True))
            exp = lr_expand(alpha, beta)
            assert exp == strip_lr_expand(alpha, beta), (alpha, beta)
            for gamma, c in exp.items():
                assert lr(alpha, beta, gamma) == c
            assert sum(c * schur_dim(g, 4) for g, c in exp.items()) == \
                schur_dim(alpha, 4) * schur_dim(beta, 4)
        # large-alpha Pieri products, most of the products of a twist sweep
        for alpha, beta, cap in pieri_cases():
            if cap == len(alpha) + len(beta):
                exp = strip_lr_expand(alpha, beta)
                assert lr_expand(alpha, beta) == exp, (alpha, beta)
                for gamma, c in exp.items():
                    assert lr(alpha, beta, gamma) == c, (alpha, beta, gamma)

    def test_lr_writes_no_memo(self, monkeypatch):
        # lr counts one coefficient: it leaves both expansion memos alone
        for memo in ("_SKEW_CACHE", "_LR_EXPAND_CACHE"):
            monkeypatch.setattr(schur, memo, {})
        assert lr((2, 1), (2, 1), (3, 2, 1)) == 2
        assert lr((24, 18, 12, 6), (6, 6, 6, 6, 6), (30, 24, 18, 12, 6)) == 1
        assert schur._SKEW_CACHE == {} and schur._LR_EXPAND_CACHE == {}

    @pytest.mark.parametrize("beta", [(6, 6, 6, 6, 6), (7, 6, 6, 6, 5)])
    def test_lr_large_skew_shape(self, beta):
        # gamma/alpha has many LR fillings, nearly all of other contents
        alpha, gamma = (24, 18, 12, 6), (30, 24, 18, 12, 6)
        expected = strip_lr_expand(alpha, beta, len(gamma)).get(gamma, 0)
        assert expected and lr(alpha, beta, gamma) == expected

    def test_lr_expand_row_caps_exhaustive(self):
        # every cap from 1 to len(alpha) + len(beta), caps below len(alpha)
        # included: there no gamma fits, since gamma contains alpha
        assert lr_expand((1, 1), (1,), max_rows=1) == {}
        box = [lam for t in range(10) for lam in partitions_in_box(3, 3, t)]
        cases = 0
        for alpha in box:
            for beta in box:
                for cap in range(1, len(alpha) + len(beta) + 1):
                    assert lr_expand(alpha, beta, cap) == \
                        strip_lr_expand(alpha, beta, cap), (alpha, beta, cap)
                    cases += 1
        assert cases == 1800
        for alpha, beta, cap in pieri_cases():
            assert lr_expand(alpha, beta, cap) == \
                strip_lr_expand(alpha, beta, cap), (alpha, beta, cap)

    def test_tensor_dimension_conservation(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(2, 7)
            alpha = partition(sorted((rng.randrange(0, 5) for _ in range(3)),
                                     reverse=True))
            beta = partition(sorted((rng.randrange(0, 5) for _ in range(3)),
                                    reverse=True))
            exp = lr_expand(alpha, beta)
            assert sum(c * schur_dim(g, n) for g, c in exp.items()) == \
                schur_dim(alpha, n) * schur_dim(beta, n)


class TestSkewAndSums:
    def test_skew_examples(self):
        assert skew_expand((2,), (1,)) == {(1,): 1}
        assert skew_expand((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
        assert skew_expand((2, 1), (2, 1)) == {(): 1}
        with pytest.raises(ValueError):
            skew_expand((2,), (3,))
        with pytest.raises(ValueError):
            skew_expand((2, 1), (1, 1, 1))

    def test_skew_is_lr(self):
        # every beta of the right size, zeros included, against brute force
        for lam in small_partitions(6):
            for nu in subpartitions(lam):
                exp = skew_expand(lam, nu)
                rest = sum(lam) - sum(nu)
                for beta in partitions_in_box(rest, rest, rest):
                    assert exp.get(beta, 0) == naive_lr(nu, beta, lam), \
                        (lam, nu, beta)

    def test_direct_sum_examples(self):
        assert direct_sum_expand((1,)) == [((1,), (), 1), ((), (1,), 1)]
        assert direct_sum_expand(()) == [((), (), 1)]

    def test_direct_sum_dimension_identity(self):
        total = sum(c * schur_dim(a, 2) * schur_dim(b, 2)
                    for a, b, c in direct_sum_expand((2, 1)))
        assert total == schur_dim((2, 1), 4) == 20
        for gamma in small_partitions(5):
            for na, nb in [(1, 2), (2, 2), (3, 1)]:
                total = sum(c * schur_dim(a, na) * schur_dim(b, nb)
                            for a, b, c in direct_sum_expand(gamma))
                assert total == schur_dim(gamma, na + nb)

    def test_cauchy(self):
        assert partitions_in_box(1, 1, 1) == [(1,)]
        assert partitions_in_box(2, 2, 2) == [(2,), (1, 1)]
        for a, b in [(3, 4), (2, 2), (4, 3), (4, 4)]:
            for t in range(0, a * b + 1):
                total = sum(schur_dim(mu, a) * schur_dim(conjugate(mu), b)
                            for mu in partitions_in_box(t, t, t))
                assert total == comb(a * b, t), (a, b, t)
        total = sum(schur_dim(mu, 3) * schur_dim(conjugate(mu), 4)
                    for mu in partitions_in_box(5, 5, 5))
        assert total == 792

    def test_schur_of_sum_copies(self):
        # S^beta(U + U) against Cauchy/dimension checks
        for beta in small_partitions(4):
            for rank, copies in [(2, 2), (3, 2), (2, 3)]:
                exp = schur_of_sum_copies(beta, copies, rank)
                got = sum(m * schur_dim(th, rank) for th, m in exp.items())
                assert got == schur_dim(beta, rank * copies), (beta, rank, copies)

    def test_sum_copies_column_cut(self, monkeypatch):
        # every beta of at most 8 cells, 2-3 copies, rank 1-3: each a the
        # column cut skips has an empty capped skew, and the decomposition
        # equals the uncut loop
        real, calls = schur._skew_expand, []

        def recorded(lam, nu, max_rows=None):
            calls.append((lam, nu, max_rows))
            return real(lam, nu, max_rows)

        monkeypatch.setattr(schur, "_skew_expand", recorded)
        skipped = 0
        for beta in (lam for n in range(9) for lam in partitions_in_box(n, n, n)):
            for copies, rank in product((2, 3), (1, 2, 3)):
                cap = rank * (copies - 1)
                monkeypatch.setattr(schur, "_SUM_CACHE", {})
                calls.clear()
                got = schur_of_sum_copies(beta, copies, rank)
                tried = {nu for lam, nu, rows in calls if lam == beta and rows == cap}
                for a in subpartitions(beta, rank):
                    if a not in tried:
                        skipped += 1
                        assert not real(beta, a, cap), (beta, copies, rank, a)
                assert got == sum_copies_uncut(beta, copies, rank), (beta, copies, rank)
        assert skipped

    def test_koszul_pair_mult_anchor(self):
        mu_dag = conjugate((10, 10, 4))
        sigma = (6, 6, 2, 2, 2, 2, 2, 2)
        assert koszul_pair_mult(mu_dag, sigma) == 28


class TestKroneckerOracle:
    """The pair multiplicity against Kronecker coefficients from
    Murnaghan-Nakayama characters, which share nothing with the LR filler:
    sum_{alpha,beta} c^theta_{alpha,beta} c^sigma_{alpha,beta} =
    sum_nu g(theta, sigma, nu) dim S^nu(C^2) over nu with at most 2 rows."""

    def test_characters_are_orthonormal(self):
        for n in range(1, 8):
            parts = partitions_in_box(n, n, n)
            for lam in parts:
                for mu in parts:
                    inner = sum(class_size(rho) * mn_character(lam, rho)
                                * mn_character(mu, rho) for rho in parts)
                    assert inner == (factorial(n) if lam == mu else 0), (lam, mu)
        assert mn_character((2, 1), (2, 1)) == 0
        assert mn_character((2, 2), (2, 2)) == 2
        assert kronecker((2, 1), (2, 1), (2, 1)) == 1
        assert kronecker((2, 2), (2, 2), (1, 1, 1, 1)) == 1

    def test_pair_mult_is_two_row_kronecker_sum(self):
        # every pair of partitions of n <= 10
        for n in range(11):
            parts = partitions_in_box(n, n, n)
            two_rows = [nu for nu in parts if len(nu) <= 2]
            for theta in parts:
                for sigma in parts:
                    want = sum(kronecker(theta, sigma, nu) * (part(nu, 1) - part(nu, 2) + 1)
                               for nu in two_rows)
                    assert koszul_pair_mult(theta, sigma) == want, (theta, sigma)

    def test_pair_mult_is_character_sum(self):
        # every pair of partitions of n <= 8, the level doubling
        # included, against characters with no sum over nu
        pairs = [(theta, sigma) for n in range(9)
                 for theta in partitions_in_box(n, n, n)
                 for sigma in partitions_in_box(n, n, n)]
        assert len(pairs) == 919
        for theta, sigma in pairs:
            assert koszul_pair_mult(theta, sigma) == \
                pair_mult_by_characters(theta, sigma), (theta, sigma)
        assert pair_mult_by_characters((1, 1), (2,)) == 1
        assert pair_mult_by_characters((2, 1), (3,)) == 2
        assert pair_mult_by_characters((1, 1, 1), (3,)) == 0


class TestWeightTensor:
    def test_trivial_unit(self):
        eta = (2, 0, -1)
        assert tensor_expand_many([eta, (0, 0, 0)], 3) == {eta: 1}

    def test_sl2_adjoint_square(self):
        got = tensor_expand_many([(1, -1), (1, -1)], 2)
        assert got == {(2, -2): 1, (1, -1): 1, (0, 0): 1}

    def test_shift_invariance(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(1, 5)
            e1 = tuple(sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True))
            e2 = tuple(sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True))
            c = rng.randrange(-3, 4)
            base = tensor_expand_many([e1, e2], n)
            shifted = tensor_expand_many([tuple(x + c for x in e1), e2], n)
            assert shifted == {tuple(x + c for x in w): m for w, m in base.items()}

    def test_dimension_conservation(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randrange(1, 5)
            e1 = tuple(sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True))
            e2 = tuple(sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True))
            exp = tensor_expand_many([e1, e2], n)
            assert sum(m * weight_dim(w, n) for w, m in exp.items()) == \
                weight_dim(e1, n) * weight_dim(e2, n)


    def test_single_weight_product(self):
        # the fold starting from the weight itself equals the fold from the
        # trivial weight, for partitions and mixed-sign weights
        def fold_from_trivial(weights, length):
            acc = {as_weight((), length): 1}
            for w in weights:
                nxt = {}
                for base, m0 in acc.items():
                    for res, m1 in tensor_expand_many([base, w], length).items():
                        nxt[res] = nxt.get(res, 0) + m0 * m1
                acc = nxt
            return acc

        rng = random.Random(43)
        cases = [[(2, 1)], [(1, 0, -2)], [(1,), (0, -1)], []]
        for _ in range(40):
            n = rng.randrange(1, 5)
            cases.append([tuple(sorted((rng.randrange(-3, 4) for _ in range(n)),
                                       reverse=True))])
            cases.append([partition(sorted((rng.randrange(0, 4) for _ in range(n)),
                                           reverse=True))])
        for weights in cases:
            for length in range(max((len(w) for w in weights), default=0), 5):
                assert tensor_expand_many(weights, length) == \
                    fold_from_trivial(weights, length), (weights, length)
        with pytest.raises(ValueError):
            tensor_expand_many([(1, 1, 1)], 2)

    def test_kernel_anchors(self):
        # (1,1) x (1,1) = (2,2) + (2,1,1) + (1,1,1,1); GL_3 drops the last
        assert tensor_entries({(1, 1, 0): 1}, {(1, 1, 0): 1}) == \
            {(2, 2, 0): 1, (2, 1, 1): 1}
        # the dual and the standard representation of GL_3
        assert tensor_entries({(0, 0, -1): 1}, {(1, 0, 0): 1}) == \
            {(1, 0, -1): 1, (0, 0, 0): 1}
        # multiplicities multiply through both expansions
        assert tensor_entries({(1, 0): 2}, {(1, 0): 3, (0, 0): 5}) == \
            {(2, 0): 6, (1, 1): 6, (1, 0): 10}
        assert product_entries([], 3) == {(0, 0, 0): 1}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(weight_lists())
    @example((4, [(2, 1, 1), (1, 1, 1), (1, 0, 0, -2)]))  # row cap
    @example((2, [(1,), (1, 1, 1)]))  # too long: WeightLengthError
    @example((3, [(1,), (0, 0, -1), (0, 1)]))  # misordered: ValueError
    def test_kernel_matches_weight_oracle(self, case):
        length, weights = case
        try:
            want = oracle_tensor_expand_many(weights, length)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                tensor_expand_many(weights, length)
            assert type(got.value) is type(exc)
            return
        assert tensor_expand_many(weights, length) == want
        entries = [as_weight(w, length) for w in weights]
        flat = product_entries(entries, length)
        assert flat == want
        if len(entries) > 1:
            # the first weight against the prebuilt product of the rest
            rest = product_entries(entries[1:], length)
            assert tensor_entries({entries[0]: 1}, rest) == flat


class TestHorn:
    def test_examples(self):
        rec = horn_predicates((1,), (1,), (2,))
        assert rec.all_hold()
        assert not horn_predicates((1,), (1,), (3,)).size
        # Pieri gives c^{(2,2)}_{(2),(2)} = 1 (the brute-force oracle agrees);
        # the predicates pass there, as they must.
        assert horn_predicates((2,), (2,), (2, 2)).all_hold()
        assert lr((2,), (2,), (2, 2)) == 1 == naive_lr((2,), (2,), (2, 2))

    def test_predicates_necessary_not_sufficient(self):
        # a genuine witness: every predicate passes yet the coefficient is 0
        assert horn_predicates((1,), (2, 2), (3, 1, 1)).all_hold()
        assert naive_lr((1,), (2, 2), (3, 1, 1)) == 0
        assert lr((1,), (2, 2), (3, 1, 1)) == 0

    def test_necessity_exhaustive(self):
        for gamma in small_partitions(8):
            g = sum(gamma)
            for alpha in small_partitions(g):
                if sum(alpha) > g:
                    continue
                for beta in small_partitions(g - sum(alpha)):
                    if sum(alpha) + sum(beta) != g:
                        continue
                    if lr(alpha, beta, gamma) > 0:
                        rec = horn_predicates(alpha, beta, gamma)
                        assert rec.size and rec.weyl and rec.dominance1 \
                            and rec.dominance2, (alpha, beta, gamma)


class TestLemma45:
    def test_trivials(self):
        assert lemma45_check((), (3, 1), (0, -4), 2)
        # sigma = (2,2), lambda empty, chi = (2,2), s = 2: the equality case
        assert lemma45_check((2, 2), (), (2, 2), 2)
        sdag_sum = sum(conjugate((2, 2))[:2])
        chi_sum = sum(sum(1 for x in (2, 2) if x >= j) for j in (1, 2))
        assert sdag_sum == chi_sum == 4

    def test_property_over_generalized_lr(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(60):
            n = rng.randrange(2, 5)
            sigma = partition(sorted((rng.randrange(0, 4) for _ in range(n)),
                                     reverse=True))
            rho = tuple(sorted((rng.randrange(-3, 3) for _ in range(n)),
                               reverse=True))
            nu, lam = [], []
            for x in rho:
                (nu if x >= 0 else lam).append(abs(x))
            lam = partition(sorted(lam, reverse=True))
            exp = tensor_expand_many([sigma, rho], n)
            for chi, mult in exp.items():
                if mult <= 0:
                    continue
                for s in range(1, n + 2):
                    assert lemma45_check(sigma, lam, chi, s), (sigma, rho, chi, s)
                    checked += 1
        assert checked > 100
