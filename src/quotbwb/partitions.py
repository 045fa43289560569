"""Partitions, GL highest weights, and their index combinatorics.

Partitions are plain tuples of positive integers in weakly decreasing
order with trailing zeros never stored, so tuple equality is partition
equality.  Weights are plain tuples too: weakly decreasing integers,
possibly negative, of an explicit length (`as_weight` pads and checks
them), so two weights of different lengths differ even when they agree
up to trailing zeros.
"""

from functools import cache
from operator import lt
from typing import Iterable, Optional, Sequence

Partition = tuple[int, ...]


def parity_sign(k: int) -> int:
    """(-1)^k as an exact integer, valid for negative k."""
    return -1 if k & 1 else 1


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize an iterable into a partition (validating monotonicity)."""
    p = tuple(map(int, parts))
    while p and p[-1] == 0:
        p = p[:-1]
    if any(map(lt, p, p[1:])):
        raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in partition: {p}")
    return p


def size(lam: Partition) -> int:
    return sum(lam)


def part(lam: Sequence[int], i: int) -> int:
    """i-th part (1-indexed), zero beyond the stored length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: result[j] = #{i : lam_i >= j+1}.

    One walk up the rows: columns lam_{i+1}+1 .. lam_i have height i.
    """
    out: list[int] = []
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - len(out))
    return tuple(out)


def contains(lam: Partition, nu: Partition) -> bool:
    """Whether nu fits inside lam row by row."""
    return len(nu) <= len(lam) and all(nu[i] <= lam[i] for i in range(len(nu)))


class WeightLengthError(ValueError):
    """A weight with more entries than the length it is embedded into."""


class InconsistencyError(ArithmeticError):
    """An internal invariant failed: two exact computations disagree.

    Raised instead of `assert`, so the check survives `python -O`; it
    signals a fault in the program, never bad input.
    """


def as_weight(w: Sequence[int], length: int) -> tuple[int, ...]:
    """The entries of a partition or weight embedded into the given length.

    Partitions pad with trailing zeros.  Weights of the exact length pass
    through; shorter weights gain interior zeros at the sign boundary,
    matching the canonical form (gamma, 0...0, -delta).  A partition with
    more parts than `length` has no embedding (the Schur functor of a
    bundle of that rank is zero) and raises WeightLengthError; callers
    treat that, and only that, as the zero bundle.  Entries that are not
    weakly decreasing raise a plain ValueError.
    """
    entries = tuple(int(x) for x in w)
    if len(entries) > length:
        raise WeightLengthError(f"weight {entries} does not fit in length {length}")
    if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
        raise ValueError(f"not weakly decreasing: {entries}")
    cut = sum(1 for x in entries if x >= 0)
    return entries[:cut] + (0,) * (length - len(entries)) + entries[cut:]


def dual_entries(entries: tuple[int, ...]) -> tuple[int, ...]:
    """The entries (-w_k, ..., -w_1) of the dual of a weight w."""
    return tuple([-x for x in reversed(entries)])


def split_signs(w: tuple[int, ...]) -> tuple[Partition, Partition]:
    """Write w = (gamma, -delta) and return the partitions (gamma, delta)."""
    gamma = partition(x for x in w if x > 0)
    delta = partition(-x for x in reversed(w) if x < 0)
    return gamma, delta


def t_index(chi: tuple[int, ...], t: int) -> Optional[int]:
    """The t-index of a weakly decreasing sequence, or None.

    j qualifies when chi_j >= j + t and chi_{j+1} <= j (the boundary
    conditions j = 0 and j = length drop the vacuous half).  For t >= 0
    at most one j qualifies; for t = 0 it is the Durfee rank.
    """
    m = len(chi)
    found = None
    for j in range(m + 1):
        ok_low = j == 0 or chi[j - 1] >= j + t
        ok_high = j == m or chi[j] <= j
        if ok_low and ok_high:
            if found is not None:
                raise InconsistencyError(f"t-index not unique for {chi}, t={t}")
            found = j
    return found


@cache
def subpartitions(lam: Partition, max_rows: Optional[int] = None) -> tuple[Partition, ...]:
    """All partitions contained in lam (optionally with a row cap)."""
    rows = len(lam) if max_rows is None else min(max_rows, len(lam))
    out: list[Partition] = []

    def rec(prefix: list[int], r: int):
        out.append(tuple(prefix))  # positive and weakly decreasing by construction
        if r >= rows:
            return
        hi = min(lam[r], prefix[-1] if prefix else lam[0])
        for x in range(hi, 0, -1):
            prefix.append(x)
            rec(prefix, r + 1)
            prefix.pop()

    rec([], 0)
    return tuple(sorted(set(out), reverse=True))


def format_parts(seq: Sequence[int]) -> str:
    """Comma-separated rendering; the empty partition prints as ''."""
    return ",".join(str(x) for x in seq)


def parse_parts(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(piece) for piece in text.split(","))
