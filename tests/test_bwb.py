import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lemmas import index_degree_bound
from oracles import inversions, partitions_in_box
from quotbwb.bwb import (
    BwbOutcome,
    GrSpec,
    _bwb,
    bwb_dual_weights,
    coh_bundle,
    kunneth,
)
from quotbwb.partitions import (
    WeightLengthError,
    as_weight,
    dual_entries,
    partition,
    t_index,
)
from quotbwb.schur import entries_dim, schur_dim, tensor_expand_many, weight_dim


def random_weight(rng, length, lo=-6, hi=7):
    return tuple(sorted((rng.randrange(lo, hi) for _ in range(length)), reverse=True))


def decreasing(entries):
    """entries as a tuple, checked weakly decreasing."""
    entries = tuple(entries)
    assert all(a >= b for a, b in zip(entries, entries[1:])), entries
    return entries


def negated(w):
    """The dual weight (-w_k, ..., -w_1), checked weakly decreasing."""
    return decreasing(-x for x in reversed(w))


def oracle_bwb(gr, rho, chi) -> BwbOutcome:
    """Borel-Weil-Bott with every intermediate weight checked weakly
    decreasing: the oracle for the tuple core `_bwb`."""
    rho = as_weight(rho, gr.k)
    chi = as_weight(chi, gr.quotient_rank)
    omega = [x + (gr.n - 1 - i) for i, x in enumerate(rho + chi)]
    if len(set(omega)) != len(omega):
        return BwbOutcome(vanishes=True)
    degree = inversions(omega)
    gamma = decreasing(x - (gr.n - 1 - i)
                       for i, x in enumerate(sorted(omega, reverse=True)))
    return BwbOutcome(False, degree, gamma, negated(gamma), weight_dim(gamma, gr.n))


def oracle_coh_bundle(gr, a_weights, b_weights) -> dict[int, int]:
    """coh_bundle summed through `oracle_bwb`, one weight pair at a time."""
    try:
        a_exp = tensor_expand_many(list(a_weights), gr.k)
        b_exp = tensor_expand_many(list(b_weights), gr.quotient_rank)
    except ValueError:
        return {}
    table: dict[int, int] = {}
    for wa, ma in a_exp.items():
        for wb, mb in b_exp.items():
            out = oracle_bwb(gr, negated(wa), negated(wb))
            if not out.vanishes:
                table[out.degree] = table.get(out.degree, 0) + ma * mb * out.dim
    return {d: v for d, v in table.items() if v}


def _sorted_weight(draw, length, lo, hi):
    entries = draw(st.lists(st.integers(lo, hi), min_size=length, max_size=length))
    return tuple(sorted(entries, reverse=True))


@st.composite
def bwb_cases(draw):
    """(k, n, rho, chi) with n <= 8 and exact-length weakly decreasing weights."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(0, n))
    return k, n, _sorted_weight(draw, k, -7, 7), _sorted_weight(draw, n - k, -7, 7)


@st.composite
def bundle_cases(draw):
    """(k, n, a_weights, b_weights): up to three weights a side, each a
    partition (at times one row too long for its bundle) or an exact-length
    weight with negative entries allowed."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))

    def side(rank):
        out = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                parts = draw(st.lists(st.integers(1, 3), max_size=rank + 1))
                out.append(tuple(sorted(parts, reverse=True)))
            else:
                out.append(_sorted_weight(draw, rank, -3, 3))
        return out

    return k, n, side(k), side(n - k)


class TestCore:
    def test_structure_sheaf(self):
        out = bwb_dual_weights(GrSpec(2, 5), (0, 0), (0, 0, 0))
        assert not out.vanishes and out.degree == 0 and out.dim == 1

    def test_p1_twist(self):
        # H^1(P^1, O(-3)) = C^2 with A = O(-1), B = O(1)
        out = bwb_dual_weights(GrSpec(1, 2), (0,), (3,))
        assert (out.degree, out.dim) == (1, 2)

    def test_hand_run_degree_15(self):
        out = bwb_dual_weights(GrSpec(3, 10), (-4, -10, -10),
                               (0, -1, -1, -1, -1, -1, -1))
        assert out.degree == 15
        assert out.gamma == (-3,) * 10
        assert out.dim == 1

    def test_vanishing_on_repetition(self):
        out = bwb_dual_weights(GrSpec(2, 4), (0, -1), (0, -1))
        assert out.vanishes

    def test_single_degree_structural(self):
        rng = random.Random(99)
        for _ in range(10000):
            n = rng.randrange(1, 7)
            k = rng.randrange(0, n + 1)
            out = bwb_dual_weights(GrSpec(k, n), random_weight(rng, k),
                                   random_weight(rng, n - k))
            if not out.vanishes:
                assert out.dim == weight_dim(out.gamma, n) > 0
                assert 0 <= out.degree <= GrSpec(k, n).dim

    def test_serre_duality(self):
        # independent structural check: twisting by the canonical weight
        # shifts (rho, chi) to (-rho - (n-k), -chi + k) and must flip the
        # degree within [0, dim Gr] while preserving the dimension
        rng = random.Random(13)
        checked = 0
        for _ in range(2000):
            n = rng.randrange(1, 7)
            k = rng.randrange(0, n + 1)
            rho = random_weight(rng, k, -5, 6)
            chi = random_weight(rng, n - k, -5, 6)
            out = bwb_dual_weights(GrSpec(k, n), rho, chi)
            rs = tuple(x - (n - k) for x in negated(rho))
            cs = tuple(x + k for x in negated(chi))
            dual = bwb_dual_weights(GrSpec(k, n), rs, cs)
            assert out.vanishes == dual.vanishes, (rho, chi)
            if not out.vanishes:
                assert dual.degree == k * (n - k) - out.degree
                assert dual.dim == out.dim
                checked += 1
        assert checked > 1000

    def test_duality_spot_check(self):
        # degree-0 sections of S^lam(B) equal the ambient Schur dimension,
        # for every lam with at most N-k parts and |lam| <= 6
        gr = GrSpec(2, 5)
        for total in range(0, 7):
            for lam in partitions_in_box(gr.quotient_rank, total, total):
                table = coh_bundle(gr, (), (lam,))
                assert table == {0: schur_dim(lam, gr.n)}, lam


class TestTupleKernel:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(bwb_cases())
    # colliding blocks (a tie at the merge's first, middle and last step),
    # then an empty block on either side and on both
    @example((3, 5, (0, 0, 0), (3, 0)))
    @example((3, 5, (0, 0, 0), (5, 3)))
    @example((3, 5, (0, 0, 0), (5, 2)))
    @example((0, 3, (), (4, 0, -2)))
    @example((3, 3, (1, 1, -5), ()))
    @example((0, 0, (), ()))
    def test_core_matches_weight_oracle(self, case):
        k, n, rho, chi = case
        gr = GrSpec(k, n)
        want = oracle_bwb(gr, rho, chi)
        got = _bwb(n, rho, chi)
        assert (got is None) == want.vanishes
        if got is not None:
            degree, gamma = got
            assert degree == want.degree
            assert gamma == want.gamma
            assert entries_dim(gamma, n) == want.dim
        # the public wrapper: the same outcome, dual weight included
        assert bwb_dual_weights(gr, rho, chi) == want

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(bundle_cases())
    def test_coh_bundle_matches_oracle(self, case):
        k, n, a, b = case
        gr = GrSpec(k, n)
        assert coh_bundle(gr, a, b) == oracle_coh_bundle(gr, a, b)

    def test_callers_are_still_validated(self):
        # weights from a caller go through as_weight once, on entry
        with pytest.raises(ValueError):
            bwb_dual_weights(GrSpec(2, 4), (0, 1), (0, 0))
        with pytest.raises(ValueError):
            bwb_dual_weights(GrSpec(2, 4), (0, 0, 0), (0,))


class TestCohBundle:
    def test_sections_of_quotient_schur(self):
        for k, n, lam in [(1, 3, (2,)), (2, 4, (1,)), (2, 5, (2, 1)),
                          (3, 7, (3, 1)), (1, 2, (4,))]:
            table = coh_bundle(GrSpec(k, n), (), (lam,))
            assert table == {0: schur_dim(lam, n)}

    def test_p1_line_bundles(self):
        gr = GrSpec(1, 2)  # A = O(-1), B = O(1)
        for e in range(-8, 9):
            table = coh_bundle(gr, (), ((e,),))
            expect = {}
            if e + 1 > 0:
                expect[0] = e + 1
            if -e - 1 > 0:
                expect[1] = -e - 1
            assert table == expect, e

    def test_dual_sigma_on_gr_4_12(self):
        sigma = (6, 6, 2, 2, 2, 2, 2, 2)
        dual = dual_entries(as_weight(sigma, 8))
        table = coh_bundle(GrSpec(4, 12), (), (dual,))
        assert table == {8: 1}

    def test_hom_bundle_adjoint(self):
        # A^dual x B on Gr(2,4): sections are the traceless endomorphisms
        table = coh_bundle(GrSpec(2, 4), ((0, -1),), ((1,),))
        assert table == {0: 15}
        # the literal bundle A x B has no cohomology at all
        assert coh_bundle(GrSpec(2, 4), ((1,),), ((1,),)) == {}

    def test_zero_bundle_when_partition_too_long(self):
        assert coh_bundle(GrSpec(1, 3), ((1, 1),), ()) == {}
        assert coh_bundle(GrSpec(2, 4), (), ((1, 1, 1),)) == {}

    @pytest.mark.parametrize("k, n", [(k, n) for n in range(6) for k in range(n + 1)])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dual_grassmannian(self, k, n, data):
        # U -> U^perp identifies Gr(k, n) with Gr(n - k, n), carrying A to
        # the dual of the quotient bundle there and B to the dual of the sub
        # bundle: the same bundle, so the same table
        def side(rank):
            weight = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
            return data.draw(st.lists(weight.map(lambda w: tuple(sorted(w, reverse=True))),
                                      max_size=2))

        a, b = side(k), side(n - k)
        assert coh_bundle(GrSpec(k, n), a, b) == coh_bundle(
            GrSpec(n - k, n), [dual_entries(w) for w in b], [dual_entries(w) for w in a])

    def test_misordered_weight_is_an_error(self):
        # only a weight too long for its bundle means the zero bundle
        with pytest.raises(ValueError) as err:
            coh_bundle(GrSpec(2, 4), (), ((1, 2),))
        assert not isinstance(err.value, WeightLengthError)
        assert coh_bundle(GrSpec(2, 4), (), ((2, 1),)) == {0: 20}

    def test_degenerate_grassmannians(self):
        assert coh_bundle(GrSpec(0, 3), (), ((2, 1),)) == {0: schur_dim((2, 1), 3)}
        assert coh_bundle(GrSpec(3, 3), ((2, 1),), ()) == {0: schur_dim((2, 1), 3)}

    def test_empty_lists_are_structure_sheaf(self):
        assert coh_bundle(GrSpec(2, 6)) == {0: 1}


class TestIndexCriteria:
    def test_examples(self):
        assert t_index((6, 6, 2, 2, 2, 2, 2, 2), 4) == 2
        assert t_index((0, -2, -3), 4) == 0
        assert t_index((5, 1), 3) == 1

    def test_agreement_with_core(self):
        rng = random.Random(1234)
        for _ in range(1000):
            k = rng.randrange(1, 7)
            qr = rng.randrange(1, 7)
            chi = random_weight(rng, qr, -5, 12)
            j = t_index(chi, k)
            out = bwb_dual_weights(GrSpec(k, k + qr),
                                   as_weight((), k), chi)
            if j is None:
                assert out.vanishes
            else:
                assert not out.vanishes and out.degree == k * j

    def test_degree_bound_examples(self):
        gr = GrSpec(3, 10)
        res = index_degree_bound((), as_weight((), 7), gr)
        assert res == (0, 0)
        res = index_degree_bound((10, 10, 4), as_weight((1, 1, 1, 1, 1, 1), 7), gr)
        assert res is not None
        i, bound = res
        assert bound >= 15
        out = coh_bundle(gr, ((10, 10, 4),), ((1, 1, 1, 1, 1, 1),))
        assert list(out) == [15]

    def test_degree_bound_random(self):
        rng = random.Random(77)
        hits = 0
        for _ in range(600):
            k = rng.randrange(1, 5)
            qr = rng.randrange(1, 5)
            gr = GrSpec(k, k + qr)
            mu = partition(sorted((rng.randrange(0, 8) for _ in range(k)),
                                  reverse=True))
            eta = random_weight(rng, qr, -4, 5)
            table = coh_bundle(gr, (mu,), (eta,))
            if not table:
                continue
            hits += 1
            res = index_degree_bound(mu, eta, gr)
            assert res is not None, (mu, eta, gr)
            _, bound = res
            assert max(table) <= bound, (mu, eta, gr, table, bound)
        assert hits > 50


class TestKunneth:
    def test_examples(self):
        assert kunneth({0: 1}, {3: 5, 0: 2}) == {3: 5, 0: 2}
        assert kunneth({15: 1}, {8: 28}) == {23: 28}
        assert kunneth({0: 2, 1: 3}, {0: 5}) == {0: 10, 1: 15}

    def test_euler_multiplicative(self):
        t1, t2 = {0: 3, 1: 5}, {0: 2, 2: 7, 3: 1}
        euler1 = sum((-1) ** d * v for d, v in t1.items())
        euler2 = sum((-1) ** d * v for d, v in t2.items())
        assert sum((-1) ** d * v for d, v in kunneth(t1, t2).items()) == euler1 * euler2
