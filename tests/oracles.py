"""Independent reference routines that the package no longer needs, kept
as oracles for the tests."""

from typing import Optional, Sequence


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


def partitions_in_box(rows: int, cols: int, total: Optional[int] = None) -> list:
    """All partitions with <= rows parts, each <= cols, in descending lex order.

    With `total` given, only partitions of that size.
    """
    if total is not None and (total < 0 or total > rows * cols):
        return []
    out = []

    def rec(prefix: list, bound: int, remaining: Optional[int]):
        if remaining == 0 or len(prefix) == rows:
            if remaining in (None, 0):
                out.append(tuple(prefix))
            return
        if remaining is None:
            out.append(tuple(prefix))
        top = min(bound, cols)
        if remaining is not None:
            top = min(top, remaining)
        slots = rows - len(prefix)
        for x in range(top, 0, -1):
            if remaining is not None and x * slots < remaining:
                break
            prefix.append(x)
            rec(prefix, x, None if remaining is None else remaining - x)
            prefix.pop()

    rec([], cols, total)
    return out


def strip_lr_expand(alpha, beta, max_rows: Optional[int] = None) -> dict:
    """{gamma: c^gamma_{alpha, beta}} with at most `max_rows` rows, by
    horizontal-strip chains.

    Builds chains alpha = g0 < g1 < ... by adding horizontal strips of sizes
    beta_i subject to the lattice condition (the count of letter i in rows
    <= r never exceeds the count of letter i-1 in rows <= r-1).  The cap
    filters the finished expansion.
    """
    out = {}

    def add_letter(shape: tuple, prev_cum: Optional[tuple], letter: int):
        if letter > len(beta):
            # horizontal strips keep shape weakly decreasing
            gam = tuple(x for x in shape if x)
            out[gam] = out.get(gam, 0) + 1
            return
        b = beta[letter - 1]
        nrows = len(shape) + 1
        srows = [0] * nrows

        def place(r: int, placed: int):
            if placed == b:
                new = tuple((shape[i] if i < len(shape) else 0) + srows[i]
                            for i in range(nrows))
                cum, tot = [], 0
                for i in range(nrows):
                    tot += srows[i]
                    cum.append(tot)
                add_letter(new, tuple(cum), letter + 1)
                return
            if r > nrows:
                return
            old = shape[r - 1] if r - 1 < len(shape) else 0
            hi = b - placed
            if r >= 2:
                above_old = shape[r - 2] if r - 2 < len(shape) else 0
                hi = min(hi, above_old - old)
            if prev_cum is not None:
                allowed = (prev_cum[r - 2] if r >= 2 else 0) - placed
                hi = min(hi, allowed)
            for s in range(hi, -1, -1):
                srows[r - 1] = s
                place(r + 1, placed + s)
            srows[r - 1] = 0

        place(1, 0)

    add_letter(tuple(alpha), None, 1)
    return {g: m for g, m in out.items() if max_rows is None or len(g) <= max_rows}
