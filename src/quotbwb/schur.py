"""Exact Schur-functor dimensions and Littlewood-Richardson expansions.

Everything is arbitrary-precision integer arithmetic.  One engine counts
LR coefficients: `_skew_fill` enumerates the column-strict fillings of a
skew shape whose reverse reading word, read after a start content, is a
lattice word.  `skew_expand` fills lam/nu, `lr_expand` fills beta after
alpha and `lr` fills gamma/alpha with content at most beta.  Size,
containment, Weyl and dominance predicates serve only to skip terms that
are provably zero (positivity never comes from a filter).  Memo tables
are keyed on canonical tuples and grow unboundedly.
"""

from itertools import accumulate, zip_longest
from typing import Optional, Sequence

from .partitions import (
    InconsistencyError,
    Partition,
    WeightLengthError,
    as_weight,
    conjugate,
    contains,
    part,
    partition,
    size,
    subpartitions,
)

_SKEW_CACHE: dict[tuple[Partition, Partition, Optional[int]], dict[Partition, int]] = {}
_LR_EXPAND_CACHE: dict[tuple[Partition, Partition, Optional[int]], dict[Partition, int]] = {}
_SUM_CACHE: dict[tuple[Partition, int, int], dict[Partition, int]] = {}

# An exact-length weight as a plain tuple, and a sum of such weights.
Entries = tuple[int, ...]
Expansion = dict[Entries, int]


def hook_lengths(lam: Partition) -> list[int]:
    dag = conjugate(lam)
    return [lam[i] - j + dag[j - 1] - i for i in range(len(lam))
            for j in range(1, lam[i] + 1)]


def schur_dim(lam: Partition, n: int) -> int:
    """Hook-content formula: prod (n + j - i) / hook(i, j), exactly.

    Zero when lam has more than n rows (the content factor at cell (n+1, 1)
    vanishes), so the result is the dimension of the Schur functor applied
    to an n-dimensional space.
    """
    lam = partition(lam)
    if len(lam) > n:
        return 0
    num = 1
    for i in range(len(lam)):
        for j in range(1, lam[i] + 1):
            num *= n + j - (i + 1)
    den = 1
    for h in hook_lengths(lam):
        den *= h
    if num % den:
        raise InconsistencyError(f"hook-content quotient not integral for {lam}, n={n}")
    return num // den


def weight_dim(w: Sequence[int], n: int) -> int:
    """Dimension of the irreducible GL_n representation with highest weight w.

    Embeds w into length n and evaluates `entries_dim`.  Weights that do
    not fit in length n give zero; a sequence that is not weakly
    decreasing raises ValueError.
    """
    try:
        entries = as_weight(w, n)
    except WeightLengthError:
        return 0
    return entries_dim(entries, n)


def entries_dim(entries: Entries, n: int) -> int:
    """`weight_dim` of a weakly decreasing entry tuple of length n, not
    re-validated: twists by a power of the determinant until all entries
    are nonnegative (`_untwist`) and evaluates hook-content on the
    resulting partition."""
    return schur_dim(_untwist(entries)[0], n)


def _skew_cells(lam: Partition, nu: Partition) -> list[tuple[int, int]]:
    """Cells of lam/nu in reverse reading order: rows top-down, right-to-left."""
    return [(r, c) for r in range(1, len(lam) + 1)
            for c in range(lam[r - 1], part(nu, r), -1)]


def _skew_fill(lam: Partition, nu: Partition, max_rows: Optional[int], *,
               start: Partition = (), bound: Optional[Partition] = None
               ) -> dict[Partition, int]:
    """{gamma: count} over the column-strict fillings of lam/nu whose reverse
    reading word is a lattice word when read after one of content `start`:
    gamma = start + content, so a letter in row r is at most len(start) + r.
    At most `max_rows` letters, and letter x at most bound[x-1] times.
    lam/nu is taken as given (canonical, nu inside lam); writes no memo.
    """
    cells = _skew_cells(lam, nu)
    ncells, first = len(cells), len(start)
    cap = first + ncells if max_rows is None else max_rows
    if cap < first:
        return {}  # gamma contains start
    counts = [0, *start] + [0] * (cap - first)
    limit = [c + (ncells if bound is None else part(bound, x)) for x, c in enumerate(counts)]
    grid: dict[tuple[int, int], int] = {}
    out: dict[Partition, int] = {}

    def fill(idx: int):
        if idx == ncells:
            # the lattice condition keeps counts weakly decreasing
            gamma = tuple(x for x in counts[1:] if x)
            out[gamma] = out.get(gamma, 0) + 1
            return
        r, c = cells[idx]
        above = grid.get((r - 1, c), 0)
        right = grid.get((r, c + 1), cap)
        for x in range(above + 1, min(first + r, right) + 1):
            if counts[x] == limit[x] or x > 1 and counts[x] >= counts[x - 1]:
                continue
            counts[x] += 1
            grid[(r, c)] = x
            fill(idx + 1)
            counts[x] -= 1
        grid.pop((r, c), None)

    fill(0)
    return out


def skew_expand(lam: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of the skew Schur functor: {beta: c^lam_{nu, beta}}.

    Counts LR fillings of lam/nu cell by cell in reverse reading order.
    """
    lam, nu = partition(lam), partition(nu)
    if not contains(lam, nu):
        raise ValueError(f"{nu} is not contained in {lam}")
    return _skew_expand(lam, nu)


def _skew_expand(lam: Partition, nu: Partition, max_rows: Optional[int] = None
                 ) -> dict[Partition, int]:
    """`skew_expand` for internal callers, which pass canonical partitions
    with nu inside lam: nothing is re-checked.  `max_rows` caps the number
    of distinct letters (partitions beta with more rows are dropped,
    matching a rank-limited target bundle); a cap of at least
    |lam| - |nu| caps nothing, so the memo key drops it."""
    if max_rows is not None and max_rows >= size(lam) - size(nu):
        max_rows = None
    key = (lam, nu, max_rows)
    hit = _SKEW_CACHE.get(key)
    if hit is None:
        hit = _SKEW_CACHE[key] = _skew_fill(*key)
    return hit


def skew_dim(lam: Partition, nu: Partition, n: int) -> int:
    """Dimension of the skew Schur functor S^{lam/nu}(C^n)."""
    return sum(c * schur_dim(beta, n) for beta, c in skew_expand(lam, nu).items())


def lr_expand(alpha: Partition, beta: Partition, max_rows: Optional[int] = None
              ) -> dict[Partition, int]:
    """Tensor-product expansion {gamma: c^gamma_{alpha, beta}}, gamma with
    at most `max_rows` rows.

    Each gamma is alpha plus the content of an LR filling of beta read
    after alpha (J. Remmel and R. Whitney, Multiplying Schur functions,
    J. Algorithms 5, 1984).  alpha and beta must be canonical partitions:
    every caller in the package passes built ones, so nothing is
    re-checked.
    """
    if max_rows is not None and max_rows >= len(alpha) + len(beta):
        max_rows = None
    key = (alpha, beta, max_rows)
    hit = _LR_EXPAND_CACHE.get(key)
    if hit is None:
        hit = _LR_EXPAND_CACHE[key] = _skew_fill(beta, (), max_rows, start=alpha)
    return hit


def lr(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """The Littlewood-Richardson coefficient c^gamma_{alpha, beta}: the LR
    fillings of gamma/alpha with content beta (Macdonald I.9).  Memoizes
    nothing."""
    alpha, beta, gamma = partition(alpha), partition(beta), partition(gamma)
    if size(alpha) + size(beta) != size(gamma):
        return 0
    if not contains(gamma, alpha) or not contains(gamma, beta):
        return 0
    return _skew_fill(gamma, alpha, len(beta), bound=beta).get(beta, 0)


def direct_sum_expand(gamma: Partition) -> list[tuple[Partition, Partition, int]]:
    """All (alpha, beta, c^gamma_{alpha, beta}) with nonzero coefficient.

    The decomposition of a Schur functor of a direct sum; deterministic
    (alpha descending, then beta descending) ordering.
    """
    gamma = partition(gamma)
    out = []
    for alpha in subpartitions(gamma):
        exp = _skew_expand(gamma, alpha)
        for beta in sorted(exp, reverse=True):
            out.append((alpha, beta, exp[beta]))
    return out


def _untwist(entries: Entries) -> tuple[Partition, int]:
    """(partition, c): the least determinant twist c >= 0 making entries + c
    a partition.  entries must be weakly decreasing."""
    c = -entries[-1] if entries and entries[-1] < 0 else 0
    return tuple(x + c for x in entries if x + c), c


def tensor_entries(left: Expansion, right: Expansion) -> Expansion:
    """Tensor product of two expansions {entries: mult} for GL_length.

    Every key on both sides is a weakly decreasing entry tuple of the same
    exact length (validated by the caller; nothing here re-checks).  Each
    pair of summands is twisted by determinant powers until both are
    partitions, LR-expanded with at most `length` rows (longer products
    vanish for GL_length), and twisted back.  Left summands are
    `lr_expand`'s alpha, right summands its beta.
    """
    rights = [(_untwist(rho), m1) for rho, m1 in right.items()]
    out: Expansion = {}
    for eta, m0 in left.items():
        length = len(eta)
        a, ca = _untwist(eta)
        for (b, cb), m1 in rights:
            c = ca + cb
            for gam, m2 in lr_expand(a, b, max_rows=length).items():
                w = tuple(x - c for x in gam) + (-c,) * (length - len(gam))
                out[w] = out.get(w, 0) + m0 * m1 * m2
    return out


def product_entries(weights: Sequence[Entries], length: int) -> Expansion:
    """Product of validated exact-length weights (empty product = trivial).

    The fold starts from the first weight itself, so each partial product
    is `lr_expand`'s alpha and the next weight its beta.
    """
    if not weights:
        return {(0,) * length: 1}
    acc = {weights[0]: 1}
    for w in weights[1:]:
        acc = tensor_entries(acc, {w: 1})
    return acc


def tensor_expand_many(weights: Sequence[Sequence[int]], length: int) -> Expansion:
    """`product_entries` for caller weights: {entries: mult}.

    Each weight is validated once by `as_weight`: one too long for
    `length` raises WeightLengthError, one not weakly decreasing ValueError.
    """
    return product_entries([as_weight(w, length) for w in weights], length)


def schur_of_sum_copies(beta: Partition, copies: int, rank: int
                        ) -> dict[Partition, int]:
    """Decompose S^beta(U + ... + U) (`copies` >= 1 summands, U of rank
    `rank`) into S^theta(U).

    Iterated direct-sum expansion recombined through LR; pure LR data, no
    Kronecker coefficients.  beta must be canonical.
    """
    key = (beta, copies, rank)
    if key in _SUM_CACHE:
        return _SUM_CACHE[key]
    if copies == 1:
        out = {beta: 1} if len(beta) <= rank else {}
    else:
        cap, out = rank * (copies - 1), {}
        for a in subpartitions(beta, rank):
            # A column-strict filling of beta/a with at most cap letters
            # puts at most cap cells in a column.  If beta_{i+cap} > a_i,
            # column beta_{i+cap} of beta/a holds rows i..i+cap, so the
            # capped skew is empty and a is skipped.  A kept a may still
            # have an empty skew: the test is necessary, not sufficient.
            if any(x > part(a, i) for i, x in enumerate(beta[cap:], 1)):
                continue
            for b, c in _skew_expand(beta, a, cap).items():
                for theta1, m1 in schur_of_sum_copies(b, copies - 1, rank).items():
                    for theta, m2 in lr_expand(a, theta1, rank).items():
                        out[theta] = out.get(theta, 0) + c * m1 * m2
    _SUM_CACHE[key] = out
    return out


def _pair_alphas(theta: Partition, sigma: Partition, least: int, most: int
                 ) -> list[Partition]:
    """The alpha of `koszul_pair_mult`'s sum with least <= |alpha| <= most
    that pass its size, Weyl and first-column cuts.

    With kappa = theta ^ sigma and rows = len(kappa), lists (in
    descending-lex order) every partition alpha inside kappa with
    |alpha| >= |theta| - |kappa| and, for lam in {theta, sigma} and every
    j, alpha_j >= lam_j - kappa_1 and alpha_j >= lam_{j+rows}.  Those are per-row lower bounds, weakly
    decreasing in j as a maximum of weakly decreasing sequences.  A
    positive bound past row `rows` leaves the list empty.

    First-column cut, the k = 1 case of McNamara's interval (see
    `koszul_pair_mult`).  Rows are 0-indexed here, lam_i = 0 past the end
    of lam.  Let R(A) be the longest row of a skew shape A and C(A) its
    number of nonempty columns.  Every constituent nu of s_A has
    R(A) <= nu_1 <= C(A), so theta/alpha and sigma/alpha share one only if
    R(sigma/alpha) <= C(theta/alpha) and R(theta/alpha) <= C(sigma/alpha);
    an alpha that fails either has a zero term and is not listed.  Rows
    are chosen top down, and after rows 0..j:
      - R(lam/alpha) >= max_{i <= j} (lam_i - alpha_i), which only grows
        with j;
      - a column of theta is covered by alpha exactly when its bottom
        cell is.  The columns whose bottom cell lies in row i are those
        c (counted from 1) with theta_{i+1} < c <= theta_i, and
        alpha_i <= theta_i covers
        max(0, alpha_i - theta_{i+1}) of them.  So
        C(theta/alpha) <= theta_0 - sum_{i <= j} max(0, alpha_i - theta_{i+1}),
        which only shrinks with j; likewise for sigma.
    A prefix that breaks either inequality between the bounds thus has no
    listed completion, and its subtree is dropped.  A completed alpha is 0
    from some row j on, where lam/alpha has rows lam_j >= lam_{j+1} >= ...
    and covers nothing: with lam_j added to the first bound, both bounds
    are exact, and the cut is tested once more.
    """
    meet = tuple(min(a, b) for a, b in zip(theta, sigma))
    rows = len(meet)
    least = max(least, size(theta) - size(meet))
    width = part(meet, 1)
    low = [0] * max(len(theta), len(sigma))
    for lam in (theta, sigma):
        for j, (x, y) in enumerate(zip_longest(lam, lam[rows:], fillvalue=0)):
            low[j] = max(low[j], x - width, y)
    if any(low[rows:]) or least > most:
        return []
    high = meet[:rows]
    rest = [*accumulate(reversed(low[:rows]), initial=0)][::-1]  # least rows j.. add
    tail = [*accumulate(reversed(high), initial=0)][::-1]  # most rows j.. add
    th, sg = theta + (0,), sigma + (0,)
    alpha: list[int] = []
    out: list[Partition] = []

    def rec(j: int, bound: int, total: int, row_t: int, row_s: int,
            cols_t: int, cols_s: int):
        # row_t, row_s: lower bounds on R(theta/alpha), R(sigma/alpha);
        # cols_t, cols_s: upper bounds on C(theta/alpha), C(sigma/alpha)
        if j < rows:
            top = min(bound, high[j], most - total - rest[j + 1])
            k = j + 1  # rows j+1..k-1 can take all of x
            for x in range(top, max(low[j], 1) - 1, -1):
                while k < rows and high[k] >= x:
                    k += 1
                # rows past j add at most min(x, high[i]) each; stop once
                # least is out of reach (smaller x reach less)
                if total + x * (k - j) + tail[k] < least:
                    return
                rt, rs = max(row_t, th[j] - x), max(row_s, sg[j] - x)
                ct = cols_t - max(0, x - th[j + 1])
                cs = cols_s - max(0, x - sg[j + 1])
                if rs > ct or rt > cs:
                    continue
                alpha.append(x)
                rec(j + 1, x, total + x, rt, rs, ct, cs)
                alpha.pop()
            if low[j]:
                return
        # the rest of alpha is 0, which low allows once low[j] is 0
        if (total >= least and max(row_s, sg[j]) <= cols_t
                and max(row_t, th[j]) <= cols_s):
            out.append(tuple(alpha))

    rec(0, width, 0, 0, 0, th[0], sg[0])
    return out


def koszul_pair_mult(theta: Partition, sigma: Partition) -> int:
    """Sum over alpha, beta of c^theta_{alpha,beta} * c^sigma_{alpha,beta}.

    Evaluated as sum_alpha <s_{theta/alpha}, s_{sigma/alpha}> over common
    subpartitions.  Both alpha and beta lie in the meet kappa = theta ^
    sigma (a nonzero c^theta_{alpha,beta} puts them inside theta,
    c^sigma_{alpha,beta} inside sigma), so no row cap is taken: the
    pipeline's sigma lie in the r2-row box, and a cap of r2 = rank B2 rows
    on alpha and beta is at least len(kappa).  Each cut below drops only
    zero terms:
      - beta is enumerated with at most len(kappa) rows;
      - alpha is generated, not filtered (`_pair_alphas`): |alpha| >=
        |theta| - |kappa| (a smaller alpha leaves a beta larger than
        kappa), and Weyl's inequalities lam_{i+j-1} <= alpha_i + beta_j
        at j = 1 and j = len(kappa) + 1, with beta_1 <= kappa_1 and no
        row of beta past len(kappa), read as lower bounds on each row of
        alpha;
      - every constituent beta of a skew Schur function s_A lies in
        [rows(A), cols(A)^dag] in dominance order (P. McNamara, Necessary
        conditions for Schur-positivity, J. Algebraic Combin. 28, 2008),
        so a common constituent needs rows(theta/alpha) <=
        cols(sigma/alpha)^dag and rows(sigma/alpha) <= cols(theta/alpha)^dag.
        The interval is applied once, inside the generator: the first
        partial sums of both are cut row by row, so a prefix that fails
        them builds no alpha (the proof is in `_pair_alphas`); in the
        scans of (n, r, d) = (2, 1, 2) at m = 6, 7 and 8 no zero pair
        keeps an alpha.

    Levels.  Let n = |theta| and P_j the terms with |beta| = j; swapping
    alpha and beta gives P_j = P_{n-j}.  P_j is the q^j coefficient of
    <s_theta[X + qX], s_sigma(X)>, and s_lam[XY] = sum g(lam,mu,nu)
    s_mu(X) s_nu(Y) (Macdonald, Symmetric Functions and Hall Polynomials,
    I.7) at Y = (1, q) makes that sum_nu g(theta,sigma,nu) s_nu(1,q), nu
    with at most 2 rows.  Each s_nu(1,q) = q^nu_2 + ... + q^nu_1 holds
    q^floor(n/2), and g >= 0: the sum is nonzero exactly when
    P_floor(n/2), the level |alpha| = ceil(n/2), is, so that level goes
    first.  The total is twice the levels |alpha| > n/2, plus the level
    n/2 once for even n.

    theta and sigma must be canonical partitions: the one caller in the
    package, `pipeline.e1_page`, passes built survivors, so nothing is
    re-checked.
    """
    n = size(theta)
    if size(sigma) != n:
        return 0
    rows = min(len(theta), len(sigma))

    def level(least: int, most: int) -> int:
        total = 0
        for alpha in _pair_alphas(theta, sigma, least, most):
            e1 = _skew_expand(theta, alpha, rows)
            e2 = _skew_expand(sigma, alpha, rows)
            if len(e2) < len(e1):
                e1, e2 = e2, e1
            total += sum(m * e2.get(b, 0) for b, m in e1.items())
        return total

    half = (n + 1) // 2
    mid = level(half, half)
    return mid and (1 + n % 2) * mid + 2 * level(half + 1, n)
