"""Index and inequality checkers for lemmas of the paper, and the Horn
predicates of LR coefficients, that no pipeline path evaluates.  The
tests confirm each statement on exhaustive or random instances against
the live code."""

from dataclasses import dataclass

from oracles import inversions
from quotbwb.partitions import as_weight, conjugate, part, partition, split_signs


def durfee_rank(lam):
    """Side length of the Durfee square: largest j with lam_j >= j."""
    j = 0
    while part(lam, j + 1) >= j + 1:
        j += 1
    return j


def t_eta_indices(mu, t, eta):
    """All qualifying (t; eta)-indices of mu, smallest first.

    i qualifies when mu_{i+1-s} >= i + t - gamma^dag_s and
    mu_{i+s} <= i + delta^dag_s for all s >= 1, where eta = (gamma, -delta).
    Constraints with row index <= 0 are vacuous; rows past mu are zero.
    """
    gamma, delta = split_signs(eta)
    gdag, ddag = conjugate(gamma), conjugate(delta)
    out = []
    for i in range(0, len(mu) + len(gamma) + 1):
        ok = all(part(mu, i + 1 - s) >= i + t - part(gdag, s) for s in range(1, i + 1))
        if ok:
            ok = all(part(mu, i + s) <= i + part(ddag, s)
                     for s in range(1, len(mu) - i + 1))
        if ok:
            out.append(i)
    return out


def index_degree_bound(mu, eta, gr):
    """(n-k; eta)-index of mu and the degree bound |delta| + sum(mu_1..i) - i^2.

    Among qualifying indices the one minimizing the bound is reported (the
    defining inequalities do not pin i uniquely); None when none qualifies.
    """
    mu = partition(mu)
    eta = as_weight(eta, gr.quotient_rank)
    _, delta = split_signs(eta)
    candidates = t_eta_indices(mu, gr.quotient_rank, eta)
    if not candidates:
        return None
    best = min(candidates, key=lambda i: sum(mu[:i]) - i * i)
    return best, sum(delta) + sum(mu[:best]) - best * best


def abacus_check(alpha, lam, slots, q):
    """Sorting-permutation length and bounds for the two-block abacus string.

    Builds (alpha_i, alpha_{i-1}+1, ..., alpha_1+i-1, lam_q, ..., lam_1+q-1)
    with alpha padded to `slots` parts and lam to q parts.  Returns None on a
    repetition; otherwise (length, bound_holds) where bound_holds checks both
    length <= |alpha| and alpha_{i-s} >= q - lam^dag_s for 0 <= s < i.
    """
    if len(alpha) > slots or len(lam) > q:
        raise ValueError("declared block sizes too small")
    block_a = [part(alpha, slots - s) + s for s in range(slots)]
    block_l = [part(lam, q - s) + s for s in range(q)]
    word = block_a + block_l
    if len(set(word)) != len(word):
        return None
    # ascending sort here (each block is already increasing), so count
    # out-of-order pairs for the increasing order
    length = inversions([-x for x in word])
    ldag = conjugate(lam)
    bound = length <= sum(alpha) and all(
        part(alpha, slots - s) >= q - (q if s == 0 else part(ldag, s))
        for s in range(slots)
    )
    return length, bound


def lemma45_check(sigma, lam, chi, s):
    """Conjugate-sum inequality for generalized LR factors.

    sigma^dag_1 + ... + sigma^dag_s - |lam| <= chi^dag_1 + ... + chi^dag_s,
    where chi^dag_j counts entries of chi that are >= j.
    """
    sdag = conjugate(partition(sigma))
    lhs = sum(part(sdag, j) for j in range(1, s + 1)) - sum(partition(lam))
    rhs = sum(sum(1 for x in chi if x >= j) for j in range(1, s + 1))
    return lhs <= rhs


@dataclass(frozen=True)
class HornRecord:
    size: bool
    weyl: bool
    dominance1: bool
    dominance2: bool

    def all_hold(self) -> bool:
        return self.size and self.weyl and self.dominance1 and self.dominance2


def _prefix(seq, s: int) -> int:
    return sum(seq[:s])


def horn_predicates(alpha, beta, gamma) -> HornRecord:
    """Necessary conditions for c^gamma_{alpha, beta} != 0.

    size: |alpha| + |beta| = |gamma|; weyl: alpha_i + beta_j >= gamma_{i+j-1};
    dominance1: partial sums of gamma bounded by those of alpha + beta;
    dominance2: partial sums of alpha and beta bounded by double-width sums
    of gamma.
    """
    a, b, g = partition(alpha), partition(beta), partition(gamma)
    ok_size = sum(a) + sum(b) == sum(g)
    ok_weyl = all(part(a, i) + part(b, j) >= g[i + j - 2]
                  for i in range(1, len(g) + 1) for j in range(1, len(g) + 2 - i))
    top = max(len(a), len(b), len(g)) + 1
    ok_dom1 = all(_prefix(g, s) <= _prefix(a, s) + _prefix(b, s) for s in range(1, top))
    ok_dom2 = all(_prefix(a, t) + _prefix(b, t) <= _prefix(g, 2 * t)
                  for t in range(1, top))
    return HornRecord(ok_size, ok_weyl, ok_dom1, ok_dom2)
