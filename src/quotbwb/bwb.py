"""Borel-Weil-Bott on a single Grassmannian, plus Kunneth combination.

The core routine `_bwb` takes the weights on the duals of the universal
sub- and quotient bundles as two plain entry tuples, shifts each by its
part of rho, and merges the two strictly decreasing blocks: a tie means
vanishing, and the inversions counted during the merge (the length of
the sorting permutation) give the unique nonvanishing degree.  It
computes no dimension, so a caller that only asks whether something
survives pays for the merge alone; `schur.entries_dim` is the dimension
of the answer, for the callers that need it.  `bwb_dual_weights`
validates its weights and calls both; `coh_bundle` is the bundle-side
wrapper: weights on A and B themselves, validated once, tensor-expanded
on entry tuples and converted to the dual convention before the merge.
`coh_duals` is its second half, for callers that hold the
dual-convention summands already.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from .partitions import WeightLengthError, as_weight, dual_entries
from .schur import Entries, Expansion, entries_dim, tensor_expand_many

CohomTable = dict[int, int]


@dataclass(frozen=True)
class GrSpec:
    """Grassmannian Gr(k, n) of k-dimensional subspaces of C^n."""

    k: int
    n: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"invalid Grassmannian Gr({self.k},{self.n})")

    @property
    def quotient_rank(self) -> int:
        return self.n - self.k

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)


@dataclass(frozen=True)
class BwbOutcome:
    """Result of BWB for one weight pair: vanishing, or one (degree, weight).

    Both weights are entry tuples: `weight` is the highest weight of the
    dual answer S^gamma(C^n)^dual, i.e. dual_entries(gamma); `gamma` is
    kept for printing next to it.
    """

    vanishes: bool
    degree: int = 0
    gamma: Optional[Entries] = None
    weight: Optional[Entries] = None
    dim: int = 0


def _bwb(n: int, rho: Entries, chi: Entries) -> Optional[tuple[int, Entries]]:
    """BWB on plain entry tuples: None, or (degree, gamma).

    rho (length k) and chi (length n - k) are weakly decreasing, so the
    blocks of omega = (rho, chi) + (n-1, ..., 0) are each strictly
    decreasing and sorting omega is one merge.  A tie between the blocks
    kills everything; otherwise the degree is the number of inversions of
    omega, counted as each chi entry passes the rho entries still pending,
    and the sorted-and-unshifted weight gamma gives the answer
    S^gamma(C^n)^dual, of dimension `entries_dim(gamma, n)`.  gamma is weakly
    decreasing by construction, so it is never re-validated.
    """
    k = len(rho)
    top = [x + n - 1 - i for i, x in enumerate(rho)]
    omega: list[int] = []
    degree = i = 0
    for j, x in enumerate(chi):
        y = x + n - k - 1 - j
        while i < k and top[i] > y:
            omega.append(top[i])
            i += 1
        if i < k and top[i] == y:
            return None
        omega.append(y)
        degree += k - i
    omega += top[i:]
    return degree, tuple(x - (n - 1 - p) for p, x in enumerate(omega))


def bwb_dual_weights(gr: GrSpec, rho: Sequence[int], chi: Sequence[int]) -> BwbOutcome:
    """Cohomology of S^rho(A^dual) x S^chi(B^dual) on Gr(k, n).

    Validates rho and chi once (`as_weight`), then runs `_bwb`.
    """
    hit = _bwb(gr.n, as_weight(rho, gr.k), as_weight(chi, gr.quotient_rank))
    if hit is None:
        return BwbOutcome(vanishes=True)
    degree, gamma = hit
    return BwbOutcome(False, degree, gamma, dual_entries(gamma), entries_dim(gamma, gr.n))


def expand_side(weights: Sequence[Sequence[int]], length: int) -> Expansion:
    """`tensor_expand_many` of the bundle-side weights on one universal
    bundle, with the zero bundle as the empty expansion.

    A partition too long for the bundle is the zero bundle (its
    WeightLengthError maps to {}).  A weight that is not weakly decreasing
    is an input error and propagates.
    """
    try:
        return tensor_expand_many(weights, length)
    except WeightLengthError:
        return {}


def dual_side(exp: Expansion) -> list[tuple[Entries, int]]:
    """The summands of an expansion in the dual convention
    S^w(E) = S^{-w}(E^dual)."""
    return [(dual_entries(w), m) for w, m in exp.items()]


def coh_duals(n: int, rhos: list[tuple[Entries, int]],
              chis: list[tuple[Entries, int]]) -> CohomTable:
    """Total cohomology table on Gr(k, n) of the summands
    m_rho m_chi S^rho(A^dual) x S^chi(B^dual), each pair of blocks merged
    by `_bwb`.

    Every term is positive, so every degree in the table is nonzero, and
    the table is empty exactly when every pair collides.
    """
    table: CohomTable = {}
    for rho, ma in rhos:
        for chi, mb in chis:
            hit = _bwb(n, rho, chi)
            if hit is not None:
                degree, gamma = hit
                table[degree] = table.get(degree, 0) + ma * mb * entries_dim(gamma, n)
    return table


def coh_duals_nonempty(n: int, rhos: list[tuple[Entries, int]],
                       chis: list[tuple[Entries, int]]) -> bool:
    """Whether `coh_duals(n, rhos, chis)` is nonempty: every term is
    positive, so exactly when some pair of blocks does not collide.  No
    dimension is computed."""
    return any(_bwb(n, rho, chi) is not None for rho, _ in rhos for chi, _ in chis)


def coh_bundle(gr: GrSpec, a_weights: Sequence[Sequence[int]] = (),
               b_weights: Sequence[Sequence[int]] = ()) -> CohomTable:
    """Total cohomology table of a tensor product of universal bundles.

    `a_weights` act on the rank-k subbundle A, `b_weights` on the rank
    (n-k) quotient B; entries may be partitions (padded) or exact-length
    weights.  Each side is validated once and tensor-expanded
    (`expand_side`), converted to the dual convention and summed by
    `coh_duals`.  A partition too long for its bundle means the zero
    bundle: empty table.
    """
    chis = dual_side(expand_side(b_weights, gr.quotient_rank))
    return coh_duals(gr.n, dual_side(expand_side(a_weights, gr.k)), chis)


def kunneth(t1: CohomTable, t2: CohomTable) -> CohomTable:
    """Degree-convolution of two cohomology tables."""
    out: CohomTable = {}
    for d1, v1 in t1.items():
        for d2, v2 in t2.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + v1 * v2
    return out
