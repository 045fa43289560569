import random

from itertools import product
from math import comb

import pytest

from lemmas import abacus_check, durfee_rank, t_eta_indices
from oracles import inversions, partitions_in_box
from quotbwb.partitions import (
    as_weight,
    conjugate,
    dual_entries,
    format_parts,
    parse_parts,
    partition,
    split_signs,
    subpartitions,
    t_index,
)


def conjugate_oracle(lam):
    """Column-count transpose, independent of the library routine."""
    cols = []
    j = 1
    while any(x >= j for x in lam):
        cols.append(sum(1 for x in lam if x >= j))
        j += 1
    return tuple(cols)


def all_partitions_upto(n):
    out = [()]
    for total in range(1, n + 1):
        out.extend(partitions_in_box(total, total, total))
    return out


class TestPartitionBasics:
    def test_canonicalization(self):
        assert partition([3, 2, 0, 0]) == (3, 2)
        assert partition([]) == ()
        with pytest.raises(ValueError):
            partition([1, 2])
        with pytest.raises(ValueError):
            partition([2, -1])

    def test_conjugate_examples(self):
        assert conjugate((5, 4, 2, 1)) == (4, 3, 2, 2, 1)
        assert conjugate(()) == ()
        assert conjugate((10, 10, 4)) == conjugate_oracle((10, 10, 4))
        assert conjugate((10, 10, 4)) == (3, 3, 3, 3, 2, 2, 2, 2, 2, 2)
        assert sum(conjugate((10, 10, 4))) == 24

    def test_conjugate_involution_exhaustive(self):
        for lam in all_partitions_upto(12):
            dag = conjugate(lam)
            assert dag == conjugate_oracle(lam)
            assert conjugate(dag) == lam
            assert sum(dag) == sum(lam)

    def test_conjugate_matches_column_counts(self):
        # the row walk against the per-column count, on a whole box
        box = partitions_in_box(6, 7)
        assert () in box and len(box) == comb(13, 6)
        for lam in box:
            assert conjugate(lam) == conjugate_oracle(lam), lam

    def test_durfee(self):
        assert durfee_rank((5, 4, 2, 1)) == 2
        assert durfee_rank(()) == 0
        assert durfee_rank((3, 3, 3)) == 3


class TestWeights:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            as_weight((0, 1), 2)
        assert as_weight([2, 0, -1], 3) == (2, 0, -1)

    def test_negate_reverse(self):
        assert dual_entries((2, 0, -1)) == (1, 0, -2)
        w = (3, 1, 1, -2)
        assert dual_entries(dual_entries(w)) == w

    def test_split_signs(self):
        assert split_signs((1, -1, -1)) == ((1,), (1, 1))
        assert split_signs((2, 0, -1)) == ((2,), (1,))
        assert split_signs((0, 0)) == ((), ())

    def test_as_weight_interior_zeros(self):
        assert as_weight((1, -1), 4) == (1, 0, 0, -1)
        assert as_weight((2, 1), 4) == (2, 1, 0, 0)
        with pytest.raises(ValueError):
            as_weight((1, 1, 1), 2)


class TestIndices:
    def test_t_index_worked_examples(self):
        assert t_index((6, 5, 2, 1), 3) == 2
        assert t_index((7, 4, 2, 2), 3) is None
        assert t_index((5, 1), 3) == 1

    def test_t_index_zero_is_durfee(self):
        for lam in all_partitions_upto(10):
            assert t_index(lam, 0) == durfee_rank(lam)

    def test_t_index_boundary_conventions(self):
        assert t_index((0, -1), 2) == 0
        assert t_index((9, 8), 2) == 2

    def test_t_index_uniqueness_over_random_weights(self):
        # at most one j satisfies both defining inequalities; the library
        # scans all candidates and would raise on a second hit
        rng = random.Random(17)
        defined = 0
        for _ in range(2000):
            n = rng.randrange(1, 8)
            w = tuple(sorted((rng.randrange(-6, 12) for _ in range(n)), reverse=True))
            t = rng.randrange(1, 6)
            if t_index(w, t) is not None:
                defined += 1
        assert 0 < defined < 2000

    def test_t_index_consequences(self):
        rng = random.Random(7)
        for _ in range(400):
            lam = partition(sorted((rng.randrange(0, 12) for _ in range(5)),
                                   reverse=True))
            t = rng.randrange(1, 5)
            j = t_index(lam, t)
            if j is not None:
                assert durfee_rank(lam) == j
                if j:
                    assert lam[j - 1] - j >= t

    def test_t_eta_index_worked_example(self):
        assert t_eta_indices((6, 4, 3, 1), 3, (1, -1, -1))[0] == 2

    def test_t_eta_zero_weight_reduces_to_t_index(self):
        zero4 = (0, 0, 0, 0)
        assert t_eta_indices((6, 5, 2, 1), 3, zero4) == [2]
        assert t_eta_indices((7, 4, 2, 2), 3, zero4) == []
        rng = random.Random(11)
        for _ in range(1000):
            lam = partition(sorted((rng.randrange(0, 10) for _ in range(4)),
                                   reverse=True))
            t = rng.randrange(1, 5)
            expect = t_index(lam, t)
            got = t_eta_indices(lam, t, zero4)
            assert got == ([] if expect is None else [expect]), (lam, t)

    def test_t_eta_indices_all_variant(self):
        found = t_eta_indices((6, 4, 3, 1), 3, (1, -1, -1))
        assert found and found[0] == 2


class TestBoxesAndAbacus:
    def test_partitions_in_box_examples(self):
        assert partitions_in_box(2, 2, 2) == [(2,), (1, 1)]
        assert partitions_in_box(3, 16, 0) == [()]
        assert len(partitions_in_box(3, 16)) == 969  # C(19, 3)

    def test_partitions_in_box_complete(self):
        got = set(partitions_in_box(2, 3))
        expect = set()
        for a in range(4):
            for b in range(a + 1):
                expect.add(partition((a, b)))
        assert got == expect

    def test_subpartitions(self):
        assert set(subpartitions((2, 1))) == {(), (1,), (2,), (1, 1), (2, 1)}
        assert set(subpartitions((2, 1), max_rows=1)) == {(), (1,), (2,)}

    def test_subpartitions_match_validated_enumeration(self):
        # the prefixes are canonical by construction: they equal every
        # row-capped sub-box tuple that partition() accepts
        for lam in all_partitions_upto(8):
            for cap in [None, *range(len(lam) + 2)]:
                rows = len(lam) if cap is None else min(cap, len(lam))
                expect = set()
                for parts in product(*(range(x + 1) for x in lam[:rows])):
                    try:
                        expect.add(partition(parts))
                    except ValueError:
                        continue
                assert subpartitions(lam, cap) == tuple(sorted(expect, reverse=True))

    def test_abacus_trivials(self):
        assert abacus_check((), (), 0, 0) == (0, True)
        assert abacus_check((1,), (), 1, 0) == (0, True)

    def test_abacus_repetition(self):
        # alpha block (1), lambda block (1): repeated value 1
        assert abacus_check((1,), (1,), 1, 1) is None

    def test_abacus_property(self):
        rng = random.Random(3)
        seen = 0
        for _ in range(3000):
            i = rng.randrange(0, 4)
            q = rng.randrange(0, 4)
            alpha = partition(sorted((rng.randrange(0, 7) for _ in range(i)),
                                     reverse=True))
            lam = partition(sorted((rng.randrange(0, 7) for _ in range(q)),
                                   reverse=True))
            res = abacus_check(alpha, lam, i, q)
            if res is None:
                continue
            seen += 1
            length, ok = res
            assert ok, (alpha, lam, i, q, length)
        assert seen > 500


class TestMisc:
    def test_inversions(self):
        assert inversions([5, -2, -3, 6, 4, 3, 2, 1, 0, -1]) == 15
        assert inversions([3, 2, 1]) == 0
        assert inversions([1, 2, 3]) == 3

    def test_parse_format(self):
        assert parse_parts("2,1") == (2, 1)
        assert parse_parts("") == ()
        assert parse_parts("0,0,-2") == (0, 0, -2)
        assert format_parts((2, 1)) == "2,1"
        assert format_parts(()) == ""
