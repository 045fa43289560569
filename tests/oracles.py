"""Independent reference routines that the package no longer needs, kept
as oracles for the tests."""

from typing import Sequence


def inversions(seq: Sequence[int]) -> int:
    """Pairs i < j with seq[i] < seq[j]: the length of the permutation
    sorting seq into strictly decreasing order.  Stable merge count."""
    arr = list(seq)
    if len(arr) < 2:
        return 0

    def count(a: list[int]) -> tuple[list[int], int]:
        if len(a) <= 1:
            return a, 0
        mid = len(a) // 2
        left, nl = count(a[:mid])
        right, nr = count(a[mid:])
        merged, n, i, j = [], nl + nr, 0, 0
        while i < len(left) and j < len(right):
            if left[i] >= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                n += len(left) - i
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, n

    return count(arr)[1]
