"""Independent reference routines that the package no longer needs, kept
as oracles for the tests."""

from functools import lru_cache
from math import factorial
from typing import Optional, Sequence

from quotbwb.bwb import kunneth
from quotbwb.partitions import (InconsistencyError, conjugate, parity_sign, part,
                                 size, subpartitions)
from quotbwb.pipeline import (EMPTY_INSERTION, QuotReport, _candidate_pairs,
                              pin_by_euler)
from quotbwb.schur import _pair_alphas, _skew_expand, koszul_pair_mult, lr_expand


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


def collision_free(rows: int, cols: int, total: int, dead: list) -> list:
    """Partitions lam of `total` in the rows x cols box, in descending lex
    order, for which some set in `dead` misses lam_i - i in every row
    i < rows, zero rows included; with dead = [frozenset()], every such
    partition.  One walk per size, rows chosen top down, a prefix dropped
    as soon as each set holds one of its values: the oracle of the
    one-walk-for-every-size `pipeline._collision_free_by_size`."""
    out: list = []
    lam: list = []

    def rec(i: int, bound: int, remaining: int, alive: list):
        if not remaining:
            # the rows from i on are zero
            if any(all(-j not in d for j in range(i, rows)) for d in alive):
                out.append(tuple(lam))
            return
        slots = rows - i
        for x in range(min(bound, remaining), 0, -1):
            if x * slots < remaining:
                break
            keep = [d for d in alive if x - i not in d]
            if keep:
                lam.append(x)
                rec(i + 1, x, remaining - x, keep)
                lam.pop()

    if 0 <= total <= rows * cols:
        rec(0, cols, total, dead)
    return out


def strip_lr_expand(alpha, beta, max_rows: Optional[int] = None) -> dict:
    """{gamma: c^gamma_{alpha, beta}} with at most `max_rows` rows, by
    horizontal-strip chains.

    Builds chains alpha = g0 < g1 < ... by adding horizontal strips of sizes
    beta_i subject to the lattice condition (the count of letter i in rows
    <= r never exceeds the count of letter i-1 in rows <= r-1).  No strip
    opens a row past the cap, and the cap filters the finished expansion.
    """
    out = {}

    def add_letter(shape: tuple, prev_cum: Optional[tuple], letter: int):
        if letter > len(beta):
            # horizontal strips keep shape weakly decreasing
            gam = tuple(x for x in shape if x)
            out[gam] = out.get(gam, 0) + 1
            return
        b = beta[letter - 1]
        # shapes only grow: a new row past the cap would be filtered out
        nrows = len(shape) + (max_rows is None or len(shape) < max_rows)
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


def graded_pair_mult(theta, sigma) -> list:
    """[P_0, ..., P_n]: the Koszul pair sum of `schur.koszul_pair_mult`
    split by |beta| = j, n = |theta| = |sigma|.

    The full pair loop, with no middle-level decision: the same generated
    alpha and memoized skew expansions, each term added to the level of
    its beta.
    """
    n = size(theta)
    rows = min(len(theta), len(sigma))
    levels = [0] * (n + 1)
    for alpha in _pair_alphas(theta, sigma, 0, n):
        e1 = _skew_expand(theta, alpha, rows)
        e2 = _skew_expand(sigma, alpha, rows)
        levels[n - size(alpha)] += sum(m * e2.get(b, 0) for b, m in e1.items())
    return levels


@lru_cache(maxsize=None)
def mn_character(lam: tuple, rho: tuple) -> int:
    """chi^lam at the class of cycle type rho, by Murnaghan-Nakayama.

    lam is held as its beta-set {lam_i + len(lam) - i}; a rim hook of
    length k is a bead moved from b to a free b - k, with sign
    (-1)^(beads strictly between).
    """
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], rho[1:]
    beads = [x + len(lam) - 1 - i for i, x in enumerate(lam)]
    held = set(beads)
    out = 0
    for b in beads:
        if b - k < 0 or b - k in held:
            continue
        moved = sorted((held - {b}) | {b - k}, reverse=True)
        shape = tuple(x - (len(moved) - 1 - i) for i, x in enumerate(moved))
        sign = -1 if sum(b - k < c < b for c in held) % 2 else 1
        out += sign * mn_character(tuple(x for x in shape if x), rest)
    return out


def class_size(rho: tuple) -> int:
    """n! / z_rho: the number of permutations of cycle type rho."""
    z = 1
    for k in set(rho):
        z *= k ** rho.count(k) * factorial(rho.count(k))
    return factorial(sum(rho)) // z


@lru_cache(maxsize=None)
def _classes(n: int) -> list:
    return [(rho, class_size(rho)) for rho in partitions_in_box(n, n, n)]


def kronecker(lam: tuple, mu: tuple, nu: tuple) -> int:
    """g(lam, mu, nu) = sum_rho chi^lam chi^mu chi^nu / z_rho, exactly."""
    n = sum(lam)
    total = sum(count * mn_character(lam, rho) * mn_character(mu, rho)
                * mn_character(nu, rho) for rho, count in _classes(n))
    if total % factorial(n):
        raise ArithmeticError(f"character sum not divisible by {n}!")
    return total // factorial(n)


def pair_mult_by_characters(theta: tuple, sigma: tuple) -> int:
    """The Koszul pair sum of `schur.koszul_pair_mult`, from characters
    alone: no LR coefficient and no sum over nu.

    The sum is <s_theta * s_sigma, h_n[2X]> (* the Kronecker product),
    and the character of h_n[2X] at the class rho is p_rho(1, 1) =
    2^len(rho) (Macdonald I.7), so it is
    (1/n!) sum_rho |C_rho| chi^theta(rho) chi^sigma(rho) 2^len(rho).
    """
    n = sum(theta)
    if sum(sigma) != n:
        return 0
    total = sum(count * mn_character(theta, rho) * mn_character(sigma, rho)
                * 2 ** len(rho) for rho, count in _classes(n))
    if total % factorial(n):
        raise ArithmeticError(f"character sum not divisible by {n}!")
    return total // factorial(n)


def _within_double(lam: tuple, kappa: tuple) -> bool:
    """Every partial sum of lam is at most twice that of kappa."""
    a = b = 0
    for i, x in enumerate(lam):
        a += x
        if i < len(kappa):
            b += 2 * kappa[i]
        if a > b:
            return False
    return True


def meet_dominance(theta: tuple, theta_dag: tuple, sigma: tuple, sigma_dag: tuple
                   ) -> bool:
    """The meet-dominance half of `pipeline._candidate_pairs`' test, from
    the meets themselves: kappa = theta ^ sigma bounds theta and sigma, and
    kappa^dag = theta^dag ^ sigma^dag bounds their conjugates, each
    partial sum by twice the meet's, one scan per partition."""
    meet = tuple(min(a, b) for a, b in zip(theta, sigma))
    meet_dag = tuple(min(a, b) for a, b in zip(theta_dag, sigma_dag))
    return (_within_double(theta, meet) and _within_double(sigma, meet)
            and _within_double(theta_dag, meet_dag)
            and _within_double(sigma_dag, meet_dag))


def pair_possible(theta: tuple, theta_dag: tuple, sigma: tuple, sigma_dag: tuple
                  ) -> bool:
    """The candidate test of `pipeline._candidate_pairs` for one pair,
    each partition given with its conjugate: Dvir's four bounds read off
    the parts, then `meet_dominance`."""
    return (len(theta) <= part(sigma_dag, 1) + part(sigma_dag, 2)
            and len(sigma) <= part(theta_dag, 1) + part(theta_dag, 2)
            and part(theta, 1) <= part(sigma, 1) + part(sigma, 2)
            and part(sigma, 1) <= part(theta, 1) + part(theta, 2)
            and meet_dominance(theta, theta_dag, sigma, sigma_dag))


def complement(lam: tuple, rows: int, cols: int) -> tuple:
    """The complement of lam in the rows x cols box: the parts cols -
    lam_{rows+1-i}, i = 1..rows, lam padded with zeros, zeros dropped."""
    padded = tuple(lam) + (0,) * (rows - len(lam))
    return tuple(x for x in (cols - y for y in reversed(padded)) if x)


def dual_pair_possible(mu: tuple, mu_box: tuple, sigma: tuple, sigma_box: tuple
                       ) -> bool:
    """The key and meet tests of `pipeline._candidate_pairs`: `pair_possible`
    on (mu^dag, sigma) and on the pair of their complements, built in the
    (rows, cols) boxes mu_box and sigma_box."""
    mu_c, sigma_c = complement(mu, *mu_box), complement(sigma, *sigma_box)
    return (pair_possible(conjugate(mu), mu, sigma, conjugate(sigma))
            and pair_possible(conjugate(mu_c), mu_c, sigma_c, conjugate(sigma_c)))


def sum_copies_uncut(beta: tuple, copies: int, rank: int) -> dict:
    """`schur.schur_of_sum_copies` without its column cut and memo: every
    a of at most `rank` rows gets its capped skew expansion."""
    if copies == 1:
        return {beta: 1} if len(beta) <= rank else {}
    out: dict = {}
    for a in subpartitions(beta, rank):
        for b, c in _skew_expand(beta, a, rank * (copies - 1)).items():
            for theta1, m1 in sum_copies_uncut(b, copies - 1, rank).items():
                for theta, m2 in lr_expand(a, theta1, rank).items():
                    out[theta] = out.get(theta, 0) + c * m1 * m2
    return out


def resolve_page_pairwise(cells: dict[tuple[int, int], int]) -> QuotReport:
    """`pipeline.resolve_page` with its differential partners found by
    testing every source against every target, cell by cell."""
    cells = {k: v for k, v in cells.items() if v}
    sums: dict[int, int] = {}
    for (c, q), v in cells.items():
        sums[c + q] = sums.get(c + q, 0) + v
    euler = sum(parity_sign(t) * v for t, v in sums.items())
    if not sums:
        return QuotReport(0, True, {}, {}, {}, True)
    tmin, tmax = min(sums), max(sums)

    def is_pair(e1, e2):
        (c1, q1), (c2, q2) = e1, e2
        return c2 > c1 and q2 == q1 - (c2 - c1) + 1

    cap: dict[int, int] = {}
    for t in range(tmin, tmax):
        src = [e for e in cells if sum(e) == t]
        tgt = [e for e in cells if sum(e) == t + 1]
        live_src = sum(cells[e] for e in src if any(is_pair(e, f) for f in tgt))
        live_tgt = sum(cells[f] for f in tgt if any(is_pair(e, f) for e in src))
        cap[t] = min(live_src, live_tgt)

    notes: list[str] = []
    # Degrees below zero carry no cohomology, so the differential rank
    # leaving degree t < 0 is S_t minus the rank arriving from t - 1.
    prev = 0
    for t in range(tmin, 0):
        out = sums.get(t, 0) - prev
        if out < 0 or out > cap.get(t, 0):
            raise InconsistencyError(
                f"page cannot cancel its negative-degree entries at {t}")
        prev = out
    forced_in0 = prev
    if forced_in0:
        notes.append(f"negative-degree entries force a differential of rank "
                     f"{forced_in0} into degree 0")

    adj: dict[int, int] = {t: v for t, v in sums.items() if t > 0}
    if sums.get(0, 0) or forced_in0:
        adj[0] = sums.get(0, 0) - forced_in0
        if adj[0] < 0:
            raise InconsistencyError("forced cascade exceeds the degree-0 entry")
    free_cap = {t: c for t, c in cap.items() if t >= 0}

    upper = {t: v for t, v in adj.items() if v}
    lower = {}
    for t, v in adj.items():
        lo = max(0, v - free_cap.get(t - 1, 0) - free_cap.get(t, 0))
        if lo:
            lower[t] = lo
    degenerate = all(c == 0 for c in cap.values())

    uncertain = [t for t in adj if upper.get(t, 0) != lower.get(t, 0)]
    relations = []
    if len(uncertain) == 2 and abs(uncertain[0] - uncertain[1]) == 1:
        a, b = sorted(uncertain)
        relations.append((b, a, adj.get(b, 0) - adj.get(a, 0)))

    exact = pin_by_euler(euler, lower, upper, uncertain, notes)
    table = dict(upper) if exact else None
    if exact and not degenerate:
        notes.append("nonzero differentials forced by nonnegativity; "
                     "table exact nonetheless")
    return QuotReport(euler, exact, table, lower, upper, degenerate,
                      relations, notes)


def contributions(params, ins=EMPTY_INSERTION) -> dict:
    """The terms behind `pipeline.e1_page(params, ins)`: for each (t, q)
    entry, the (mu, sigma, mult, mult * dim) of every pair with a nonzero
    multiplicity, in the page's pair order, from the same candidate pairs,
    multiplicities and factor tables."""
    out: dict = {}
    for t, f1, f2 in _candidate_pairs(params, ins):
        mult = koszul_pair_mult(f1.dag, f2.lam)
        if mult:
            for q, v in sorted(kunneth(f1.table(), f2.table()).items()):
                out.setdefault((t, q), []).append((f1.lam, f2.lam, mult, mult * v))
    return out
