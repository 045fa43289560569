"""Quot-scheme cohomology via the two-Grassmannian embedding.

The embedding parameters, the exterior-power expansion of the cutting
bundle, the first page of the hypercohomology spectral sequence for
arbitrary insertions on the four universal bundles, and a conservative
assembler: exact tables are claimed only when every differential is
provably zero or forced (nonnegativity pinning, Euler pinning), otherwise
per-degree bounds are reported.
"""

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import NamedTuple, Optional, Sequence

from .bwb import (CohomTable, GrSpec, coh_bundle, coh_duals, coh_duals_nonempty,
                  dual_side, expand_side, kunneth)
from .partitions import (
    InconsistencyError,
    Partition,
    parity_sign,
    WeightLengthError,
    as_weight,
    conjugate,
    dual_entries,
    part,
    partition,
    size,
    split_signs,
    subpartitions,
)
from .schur import (
    Entries,
    Expansion,
    koszul_pair_mult,
    schur_dim,
    schur_of_sum_copies,
    skew_dim,
    tensor_entries,
)


@dataclass(frozen=True)
class QuotSetup:
    """Rank-r degree-d quotients of V = O(-b_1) + ... + O(-b_n) on P^1.

    The twist m fixes the Grassmannian embedding; m >= b + d is required.
    Irreducibility of the parameter space holds unconditionally for the
    trivial splitting; for nontrivial splittings it is an assumption,
    since no effective threshold for d is available.
    """

    n: int
    r: int
    d: int
    splitting: tuple[int, ...] = ()
    m: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.r < self.n:
            raise ValueError("need 0 < r < n")
        if self.d < 0:
            raise ValueError("need d >= 0")
        s = tuple(self.splitting) if self.splitting else (0,) * self.n
        if len(s) != self.n or list(s) != sorted(s) or s[0] != 0:
            raise ValueError("splitting must be 0 = b_1 <= ... <= b_n")
        object.__setattr__(self, "splitting", s)
        m = self.m if self.m is not None else self.b + self.d
        if m < self.b + self.d:
            raise ValueError(f"twist m = {m} below b + d = {self.b + self.d}")
        object.__setattr__(self, "m", m)

    @property
    def b(self) -> int:
        return sum(self.splitting)

    @property
    def quot_dim(self) -> int:
        return self.n * self.d + self.r * self.b + self.r * (self.n - self.r)

    @property
    def size_bound(self) -> int:
        """n d + r b + n, the bound in the size hypotheses of the paper's
        vanishing statements."""
        return self.n * self.d + self.r * self.b + self.n


@dataclass(frozen=True)
class StrommeParams:
    """Derived data of the embedding into Gr(k1, N1) x Gr(k2, N2)."""

    n1: int
    k1: int
    r1: int
    n2: int
    k2: int
    r2: int
    quot_dim: int

    @property
    def rank_k(self) -> int:
        return 2 * self.k1 * self.r2

    @property
    def gr1(self) -> GrSpec:
        return GrSpec(self.k1, self.n1)


def stromme(setup: QuotSetup) -> StrommeParams:
    """Embedding parameters at twist m: section counts of V(m-1) and V(m)."""
    n, r, d, b, m = setup.n, setup.r, setup.d, setup.b, setup.m
    p = StrommeParams(
        n1=n * m - b,
        k1=(n - r) * m - b - d,
        r1=r * m + d,
        n2=n * (m + 1) - b,
        k2=(n - r) * (m + 1) - b - d,
        r2=r * (m + 1) + d,
        quot_dim=setup.quot_dim,
    )
    if p.k1 < 0:
        raise ValueError(f"negative k1 = {p.k1} (m too small)")
    if p.n1 != p.k1 + p.r1 or p.n2 != p.k2 + p.r2:
        raise InconsistencyError(f"embedding ranks do not add up: {p}")
    if p.k1 * p.r1 + p.k2 * p.r2 - p.rank_k != p.quot_dim:
        raise InconsistencyError(f"embedding dimension is not the Quot dimension: {p}")
    return p


class InsertionSpec(NamedTuple):
    """Weights of Schur functors inserted on the four universal bundles.

    a1/a2 land on the rank k1/k2 subbundles (the sub-side tautological
    bundles), b1/b2 on the rank r1/r2 quotients.  Each weight is a
    sequence of integers: a partition (padded to the bundle rank) or an
    exact-length weight; a dual bundle S^w(E^dual) is entered as the
    bundle-side weight dual_entries(w).  With entry tuples it is
    hashable; it keys the hyper terms and the scan memo.
    """

    a1: tuple[Sequence[int], ...] = ()
    b1: tuple[Sequence[int], ...] = ()
    a2: tuple[Sequence[int], ...] = ()
    b2: tuple[Sequence[int], ...] = ()

    def key(self) -> tuple:
        """The four slots as tuples of entry tuples."""
        return tuple(tuple(tuple(w) for w in ws) for ws in self)


EMPTY_INSERTION = InsertionSpec()


@dataclass(frozen=True)
class KoszulTerm:
    t: int
    mu: Partition
    sigma: Partition
    mult: int


def koszul_terms(params: StrommeParams, t: int) -> list[KoszulTerm]:
    """Summands (mu, sigma, mult) of the t-th exterior power of K^dual.

    K^dual = A1 x (B2^dual + B2^dual), so by the dual Cauchy formula
    (I. G. Macdonald, Symmetric Functions and Hall Polynomials, I.4;
    J. Weyman, Cohomology of Vector Bundles and Syzygies, 2.3) it is the
    sum over |mu| = t of S^mu(A1) x S^{mu^dag}(B2^dual + B2^dual), mu in
    the k1 x 2r2 box of `_factor_inputs`; `schur_of_sum_copies` splits the
    second factor into S^sigma(B2^dual), with multiplicity the sum of
    c^{mu^dag}_{a,b} c^sigma_{a,b} over a, b.  Each sigma lies in the
    r2 x 2k1 box: the rank cap r2 bounds its rows, and a nonzero term has
    a and b inside mu^dag, whose parts are at most k1, so sigma_1 <= a_1 +
    b_1 <= 2k1.  Terms come in descending-lex order on mu, then sigma.
    """
    if not 0 <= t <= params.rank_k:
        raise ValueError(f"t = {t} outside [0, {params.rank_k}]")
    gr, cols, _, _ = _factor_inputs(params, 1, (), ())
    terms = []
    for mu in _collision_free_by_size(gr.k, cols, [frozenset()], t).get(t, []):
        exp = schur_of_sum_copies(conjugate(mu), 2, params.r2)
        terms.extend(KoszulTerm(t, mu, sigma, exp[sigma])
                     for sigma in sorted(exp, reverse=True))
    return terms


class _Survivor:
    """A collision-free Koszul partition lam of one Grassmannian factor,
    with the keys `_candidate_pairs` compares: h = len(lam), w = lam_1,
    h2 = dag_1 + dag_2 = h + #{i : lam_i >= 2}, w2 = lam_1 + lam_2, and
    (ch, cw, ch2, cw2) the same of its complement lam^c_i = C - lam_{R+1-i}
    in its R x C box, read off lam padded to R rows: cw = C - lam_R, cw2 =
    cw + C - lam_{R-1}, ch = #{i : lam_i < C}, ch2 = ch + #{i : lam_i <=
    C - 2}, all 0 when R = 0.  `dag`, `complement()` (lam^c and its
    conjugate), `alive()` (the table is nonempty) and `table()` are built
    on first read and kept; the last two read the factor's inputs (gr,
    cols, fixed, P), built once per memo entry and shared."""

    __slots__ = ("lam", "inputs", "h", "w", "h2", "w2", "ch", "cw", "ch2", "cw2",
                 "_dag", "_comp", "live", "built")

    def __init__(self, lam: Partition, inputs: tuple):
        rows, cols = inputs[0].k, inputs[1]
        self.lam, self.inputs = lam, inputs
        self._dag = self._comp = self.live = self.built = None
        self.h, self.w = len(lam), part(lam, 1)
        self.h2, self.w2 = 2 * self.h - lam.count(1), self.w + part(lam, 2)
        self.cw = cols - part(lam, rows) if rows else 0
        self.cw2 = self.cw + (cols - part(lam, rows - 1) if rows > 1 else 0)
        # the parts lie in [1, C], and the padding zeros are below C if C > 0
        self.ch = rows - lam.count(cols) if cols else 0
        self.ch2 = self.ch + (rows - lam.count(cols) - lam.count(cols - 1) if cols > 1 else 0)

    @property
    def dag(self) -> Partition:
        if self._dag is None:
            self._dag = conjugate(self.lam)
        return self._dag

    def complement(self) -> tuple[Partition, Partition]:
        """(lam^c, its conjugate) in the survivor's box."""
        if self._comp is None:
            gr, cols = self.inputs[0], self.inputs[1]
            comp = tuple(x for x in (cols - part(self.lam, i)
                                     for i in range(gr.k, 0, -1)) if x)
            self._comp = comp, conjugate(comp)
        return self._comp

    def alive(self) -> bool:
        """`coh_duals_nonempty` (one tensor with P, then `_bwb`), skipped
        for P None, where the walk's collision criterion is exact."""
        if self.live is None:
            gr, _, fixed, product = self.inputs
            self.live = product is None or coh_duals_nonempty(
                gr.n, *_factor_terms(gr, fixed, product, self.lam))
        return self.live

    def table(self) -> CohomTable:
        if self.built is None:
            gr, _, fixed, product = self.inputs
            self.built = coh_duals(gr.n, *_factor_terms(gr, fixed, product, self.lam))
        return self.built


# Factor survivors, keyed on (params, factor, normalized insertions on
# that factor), each mapping t to its nonempty list; filled by
# _factor_survivors.
_SURVIVOR_CACHE: dict[tuple, dict[int, list[_Survivor]]] = {}


def _times(entries: Entries, product: Optional[Expansion]) -> Expansion:
    """entries tensored with a prebuilt product of insertions (None: none)."""
    return {entries: 1} if product is None else tensor_entries({entries: 1}, product)


def _window(product: Optional[Expansion]) -> tuple[int, int]:
    """[lo, hi] on the bundle side of a dual-convention product of
    insertions: the least last and the greatest first entry of the duals
    of its summands; [0, 0] for no insertion (or a rank-0 bundle, whose
    box has no row)."""
    if not product or not next(iter(product)):
        return 0, 0
    return -max(w[0] for w in product), -min(w[-1] for w in product)


def _dead_values(forbidden: set[int], lo: int, hi: int) -> frozenset[int]:
    """The v whose whole window v + [lo, hi] lies in `forbidden`."""
    return frozenset(f - lo for f in forbidden
                     if all(f + e in forbidden for e in range(1, hi - lo + 1)))


def _collision_free_by_size(rows: int, cols: int, dead: list[frozenset[int]],
                            cap: Optional[int] = None) -> dict[int, list[Partition]]:
    """Partitions lam in the rows x cols box with |lam| <= cap (None: no
    cap) for which some set in `dead` misses lam_i - i in every row
    i < rows, zero rows included, by size: {size: partitions in
    descending-lex order}, nonempty sizes only.  With dead =
    [frozenset()], every such box partition.

    One depth-first walk: rows are chosen top down, x descending, and a
    prefix is dropped as soon as each set holds one of its values, so no
    box partition outside the result is built.  Each prefix is a box
    partition (its later rows zero), put in its size's list before its
    children are visited when some set still alive misses -j in every
    zero row j.  Pre-order keeps each list in descending-lex order: two
    partitions of one size are never prefixes of each other (parts are
    positive), so they first differ in some row below a common prefix,
    and the walk visits the whole subtree of that row's larger value
    before the smaller one.  The order is fixed, so a page lists its
    pairs in the same order on every run.
    """
    out: dict[int, list[Partition]] = {}
    lam: list[int] = []
    cap = rows * cols if cap is None else cap

    def rec(i: int, bound: int, total: int, alive: list[tuple[int, frozenset[int]]]):
        # (z, d) in alive: the rows from z on may be zero for d
        if any(z <= i for z, _ in alive):
            out.setdefault(total, []).append(tuple(lam))
        if i < rows:
            for x in range(min(bound, cap - total), 0, -1):
                keep = [zd for zd in alive if x - i not in zd[1]]
                if keep:
                    lam.append(x)
                    rec(i + 1, x, total + x, keep)
                    lam.pop()

    if cap >= 0:
        rec(0, cols, 0, [(next((j + 1 for j in reversed(range(rows)) if -j in d), 0), d)
                         for d in dead])
    return out


def _factor_inputs(params: StrommeParams, factor: int, a: tuple, b: tuple
                   ) -> tuple[GrSpec, int, list[tuple[Entries, int]], Optional[Expansion]]:
    """(gr, cols, fixed, P) of one Grassmannian factor: the Grassmannian
    whose rank-gr.k sub bundle carries the Koszul partition, the width of
    the partition's gr.k x cols box, the summands of the quotient side
    (the side without the partition), and the product of the insertions
    beside the partition (None for none, {} when one is a partition too
    long for its bundle), both in the dual convention.  This is the one
    place that names a factor's Grassmannian, sides and box.

    Factor 1 is Gr(k1, n1), mu on A1 in the k1 x 2r2 box: a beside mu, b
    fixed, both dualized.  Factor 2 is read on Gr(r2, n2), sigma in the
    r2 x 2k1 box: U -> U^perp identifies Gr(k2, n2) with Gr(r2, n2), A2
    with the dual of the quotient bundle there and B2 with the dual of
    the sub bundle (J. Weyman, Cohomology of Vector Bundles and Syzygies,
    CUP 2003, ch. 3-4).  So S^sigma(B2^dual) is S^sigma of the sub
    bundle, and the weights of b on B2 (beside sigma) and of a on A2
    (fixed) are already in the dual convention.
    """
    if factor == 1:
        gr = params.gr1
        return (gr, 2 * params.r2, dual_side(expand_side(b, gr.quotient_rank)),
                dict(dual_side(expand_side(a, gr.k))) if a else None)
    gr = GrSpec(params.r2, params.n2)
    return (gr, 2 * params.k1, list(expand_side(a, gr.quotient_rank).items()),
            expand_side(b, gr.k) if b else None)


def _factor_terms(gr: GrSpec, fixed: list, product: Optional[Expansion],
                  lam: Partition) -> tuple[list, list]:
    """(rhos, chis) of a factor's table for the Koszul partition lam on the
    sub bundle: the dual of lam tensored with P, beside the fixed side."""
    dual = (0,) * (gr.k - len(lam)) + dual_entries(lam)
    return list(_times(dual, product).items()), fixed


def _factor_survivors(params: StrommeParams, factor: int, a: tuple, b: tuple,
                      t: int) -> list[_Survivor]:
    """Koszul partitions of the t-th term that pass the factor's BWB
    collision criterion, the candidates whose table may be nonempty.

    factor 1: mu in the k1 x 2r2 box with |mu| = t, table
    H(Gr(k1, n1), S^mu(A1) x a x b); factor 2: sigma in the r2 x 2k1 box
    with |sigma| = t, table H(Gr(k2, n2), a x S^sigma(B2^dual) x b).  Each
    candidate is a `_Survivor`, in the order of `_collision_free_by_size`.
    `a` and `b` are tuples of entry tuples (`InsertionSpec.key()`), so
    insertions given as lists or tuples with the same entries share one
    memo entry.  The first call for a factor builds its lists for every t
    at once: one `_factor_inputs` call, shared by every survivor,
    validates and expands the fixed side and multiplies out the
    insertions beside the partition (P; an empty product, from a
    partition too long for its bundle, empties every list), and one walk
    of the box yields every size's candidates.  Nothing is tensored here:
    `_candidate_pairs` tests a candidate's table for a surviving term
    (`_Survivor.alive`) only in a pair that passed its cheaper tests.  The
    criterion, on the Grassmannian Gr(k, n) of `_factor_inputs`, with the
    partition lam on the sub bundle and 0-indexed rows counting zero rows:
      - a bundle-side constituent gamma of lam x P against a fixed
        summand chi ties in `_bwb` exactly when gamma_i - i lies in
        F_chi = {1 + j - chi_j} for some row i;
      - every constituent has gamma_i - lam_i in [lo, hi] (`_window`):
        twisting a bundle-side summand w of P by det^(-w_last) gives a
        partition beta, and gamma = g + w_last for a constituent g of
        lam x beta; LR containment gives g_i >= lam_i, and Weyl's
        inequality at j = 1 gives g_i <= lam_i + beta_1, so gamma_i -
        lam_i is in [w_last, w_first];
      - so if, for every chi, some row has all of lam_i - i + [lo, hi] in
        F_chi, every term collides and the table is empty; lam is a
        candidate only otherwise, and with no insertion beside lam
        ([lo, hi] = [0, 0], gamma = lam) the criterion is exact;
      - factor 2 needs no rule of its own: Gr(k2, n2) and Gr(r2, n2) are
        the same variety, its bundle is the same bundle there, so its
        table is the same table.
    """
    key = (params, factor, a, b)
    lists = _SURVIVOR_CACHE.get(key)
    if lists is None:
        lists = {}
        inputs = _factor_inputs(*key)
        gr, cols, fixed, product = inputs
        if fixed and product != {}:
            lo, hi = _window(product)
            dead = {_dead_values({1 + j - x for j, x in enumerate(chi)}, lo, hi)
                    for chi, _ in fixed}
            lists = {total: [_Survivor(lam, inputs) for lam in lams] for total, lams
                     in _collision_free_by_size(gr.k, cols, list(dead)).items()}
        _SURVIVOR_CACHE[key] = lists
    return lists.get(t, [])


def _within_double_meet(a: Partition, b: Partition) -> bool:
    """Every partial sum of a and of b is at most twice that of the meet
    a ^ b, in one walk: past the shorter partition the meet adds 0."""
    sa = sb = sm = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        sa += x
        sb += y
        sm += 2 * min(x, y)
        if sa > sm or sb > sm:
            return False
    return True


def _candidate_pairs(params: StrommeParams, ins: InsertionSpec) -> list:
    """Candidate pairs (t, f1, f2) of the page: f1 the survivor of mu on
    the first factor, f2 that of sigma on the second, ordered by t, then
    mu, then sigma.

    The candidates come from the memoized lists of `_factor_survivors`
    (the sigma lists are read only at the t where some mu is listed).
    Each test runs only on a pair that passed every one before it: the
    eight Dvir keys of the pair and its complement pair (those that fail
    most often on the scans first), the pair's two meet walks, the
    complement pair's two, and last whether both factor tables are
    nonempty (`_Survivor.alive`).  All but the last are necessary for
    koszul_pair_mult(theta, sigma) != 0, theta = mu^dag; none asserts a
    nonzero multiplicity, and the kernel evaluates the pair itself.  The
    multiplicity sum_{alpha,beta} c^theta_{alpha,beta} c^sigma_{alpha,beta}
    equals sum_nu g(theta, sigma, nu) dim S^nu(C^2), with g the Kronecker
    coefficient and nu of at most 2 rows.

    Dvir: g(lam, nu, rho) != 0 forces len(rho) <= |lam ^ nu^dag| and
    rho_1 <= |lam ^ nu| (Y. Dvir, On the Kronecker product of S_n
    characters, J. Algebra 154, 1993).  With len(nu) <= 2 this gives
    len(theta) <= sigma^dag_1 + sigma^dag_2, len(sigma) <= theta^dag_1 +
    theta^dag_2, theta_1 <= sigma_1 + sigma_2 and sigma_1 <= theta_1 +
    theta_2.  As theta = mu^dag, in the survivors' keys (`_Survivor`):
    w(f1) <= h2(f2), h(f2) <= w2(f1), h(f1) <= w2(f2) and w(f2) <= h2(f1).

    Meet dominance: with kappa = theta ^ sigma, a nonzero term has alpha,
    beta inside kappa, and c^gamma_{alpha,beta} != 0 forces the partial
    sums of gamma (and of gamma^dag) below those of alpha + beta (and of
    alpha^dag + beta^dag); so theta and sigma are bounded by 2 kappa, and
    their conjugates by 2 kappa^dag = 2 (theta^dag ^ sigma^dag).  These
    are the two `_within_double_meet` walks, on (mu^dag, sigma) and (mu,
    sigma^dag).

    Koszul duality: a pair is nonzero only if its complement pair (mu^c,
    sigma^c) is, mu^c in the k1 x 2r2 box and sigma^c in the r2 x 2k1 box.
    Let W = B2^dual, V = A1 x (W + W) of rank N = 2 k1 r2.  By the dual
    Cauchy formula, restricted to the diagonal GL(W), Lambda^t V is the
    sum of c(mu^dag, sigma) S^mu(A1) x S^sigma(W), |mu| = |sigma| = t, with
    c the pair sum of `koszul_pair_mult` when len(sigma) <= r2 (its alpha,
    beta lie inside sigma, so no row cap binds; `TestRowCapNeverBinds`).
    Lambda^t V = (Lambda^{N-t} V)^dual x det V, and S^lam(E)^dual x
    det(E)^C = S^{lam^c}(E) for lam in the rank(E) x C box (J. Weyman,
    Cohomology of Vector Bundles and Syzygies, CUP 2003, ch. 2); the
    irreducibles of GL(A1) x GL(W) are distinct, so c(mu^dag, sigma) =
    c((mu^c)^dag, sigma^c).  `complement()` is (lam^c, its conjugate).
    """
    a1, b1, a2, b2 = ins.key()
    out = []
    for t in range(params.rank_k + 1):
        firsts = _factor_survivors(params, 1, a1, b1, t)
        if not firsts:
            continue
        seconds = _factor_survivors(params, 2, a2, b2, t)
        for f1 in firsts:
            h, w, h2, w2 = f1.h, f1.w, f1.h2, f1.w2
            ch, cw, ch2, cw2 = f1.ch, f1.cw, f1.ch2, f1.cw2
            out.extend((t, f1, f2) for f2 in seconds
                       if cw <= f2.ch2 and f2.w <= h2 and w <= f2.h2 and f2.cw <= ch2
                       and f2.h <= w2 and h <= f2.w2 and f2.ch <= cw2 and ch <= f2.cw2
                       and _within_double_meet(f1.dag, f2.lam)
                       and _within_double_meet(f1.lam, f2.dag)
                       and _within_double_meet(f1.complement()[1], f2.complement()[0])
                       and _within_double_meet(f1.complement()[0], f2.complement()[1])
                       and f1.alive() and f2.alive())
    return out


@dataclass
class E1Page:
    """Sparse (t, q) -> dimension table."""

    entries: dict[tuple[int, int], int]

    def euler(self) -> int:
        return sum(parity_sign(q - t) * v for (t, q), v in self.entries.items())


def e1_page(params: StrommeParams, ins: InsertionSpec = EMPTY_INSERTION) -> E1Page:
    """First page of the Koszul spectral sequence for the given insertions.

    E1[t, q] = H^q of (insertions) x (t-th Koszul term), contributing to
    total degree q - t.  One pass lists the candidate pairs and computes
    their multiplicities in this process, in order.  The factor tables are
    built (and kept with their survivors) only for the pairs with a
    nonzero multiplicity.
    """
    entries: dict[tuple[int, int], int] = {}
    for t, f1, f2 in _candidate_pairs(params, ins):
        mult = koszul_pair_mult(f1.dag, f2.lam)
        if not mult:
            continue
        for q, v in sorted(kunneth(f1.table(), f2.table()).items()):
            entries[(t, q)] = entries.get((t, q), 0) + mult * v
    return E1Page({k: v for k, v in entries.items() if v})


# ------------------------------------------------------------------ assembly


@dataclass
class QuotReport:
    """Assembled cohomology: exact table, or per-degree (lower, upper) bounds.

    euler is always exact.  `degenerate` records that no differential can
    be nonzero for positional reasons (E1 = Einf on the nose); `exact` may
    hold without degeneracy when forced differentials pin every degree.
    """

    euler: int
    exact: bool
    table: Optional[dict[int, int]]
    lower: dict[int, int]
    upper: dict[int, int]
    degenerate: bool
    relations: list[tuple[int, int, int]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def max_degree(self) -> Optional[int]:
        nonzero = [d for d, v in self.upper.items() if v]
        return max(nonzero) if nonzero else None

    def is_zero(self) -> bool:
        return self.exact and not any(self.table.values())


def pin_by_euler(euler: int, lower: dict[int, int], upper: dict[int, int],
                 uncertain: list[int], notes: list[str]) -> bool:
    """Pin a single uncertain degree by the exact Euler characteristic.

    Sets (or, at zero, drops) its bounds in place, adds a note, and
    returns whether every degree is now exact; a pinned value outside its
    bounds means contradictory inputs: InconsistencyError.
    """
    if len(uncertain) != 1:
        return not uncertain
    t0 = uncertain[0]
    rest = sum(parity_sign(t) * upper.get(t, 0) for t in upper if t != t0)
    pinned = parity_sign(t0) * (euler - rest)
    if not lower.get(t0, 0) <= pinned <= upper.get(t0, 0):
        raise InconsistencyError("Euler pinning escaped the bounds")
    notes.append(f"degree {t0} pinned by the exact Euler characteristic")
    if pinned:
        upper[t0] = lower[t0] = pinned
    else:
        upper.pop(t0, None)
        lower.pop(t0, None)
    return True


def resolve_page(cells: dict[tuple[int, int], int]) -> QuotReport:
    """Conservative resolution of a sparse spectral-sequence page.

    Cells are keyed (column, row): every differential moves (c, q) to
    (c + r, q - r + 1) for some page r >= 1, raising the total degree
    c + q by one.  Sound facts used, and nothing else:
      - entries with no structural partner survive;
      - total cohomology vanishes in negative degrees, forcing the
        alternating cascade of differential ranks out of them;
      - remaining uncertainty yields per-degree bounds from the capacity
        of potential differentials, with single-degree uncertainty pinned
        by the exact Euler characteristic.
    """
    sums: dict[int, int] = {}
    by_degree: dict[int, list[tuple[int, int]]] = {}
    for (c, q), v in cells.items():
        if v:
            sums[c + q] = sums.get(c + q, 0) + v
            by_degree.setdefault(c + q, []).append((c, v))
    euler = sum(parity_sign(t) * v for t, v in sums.items())
    if not sums:
        return QuotReport(0, True, {}, {}, {}, True)
    tmin, tmax = min(sums), max(sums)

    # A differential joins (c1, q1) in total degree t to (c2, q2) in
    # degree t + 1 when c2 > c1 and q2 = q1 - (c2 - c1) + 1.  The row
    # condition always holds between these degrees: q2 = t + 1 - c2 =
    # q1 + c1 + 1 - c2.  So a source has a partner exactly when it lies
    # left of the last target column, and a target exactly when it lies
    # right of the first source column.
    cap: dict[int, int] = {}
    for t in range(tmin, tmax):
        src, tgt = by_degree.get(t), by_degree.get(t + 1)
        if src and tgt:
            last, first = max(c for c, _ in tgt), min(c for c, _ in src)
            cap[t] = min(sum(v for c, v in src if c < last),
                         sum(v for c, v in tgt if c > first))

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


def assemble(page: E1Page) -> QuotReport:
    """Resolve the Koszul page: E1[t, q] sits in column -t, total degree q - t."""
    return resolve_page({(-t, q): v for (t, q), v in page.entries.items()})


# ------------------------------------------------------------------ verifiers


@dataclass
class Verdict:
    """Outcome of checking one statement on one instance.

    `hypotheses_hold` gates the claim; `matches` reports whether the scan
    agreed with the asserted conclusion (None when hypotheses fail and the
    statement is vacuous on the instance).
    """

    statement: str
    hypotheses_hold: bool
    matches: Optional[bool]
    expected: Optional[dict[int, int]]
    report: QuotReport
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.matches is None or self.matches


def verify_thm41(setup: QuotSetup, eta: Sequence[int], rho: Sequence[int]) -> Verdict:
    """Two-insertion vanishing / global-sections statement.

    eta rides the first quotient bundle (length r1), rho the second
    (length r2).  With eta = (gamma, -delta), rho = (lambda, -nu): under
    the size and first-part hypotheses, mixed signs kill all cohomology,
    and pure partitions give exactly the degree-0 product of Schur
    dimensions of the section spaces.
    """
    params = stromme(setup)
    we, wr = as_weight(eta, params.r1), as_weight(rho, params.r2)
    gamma, delta = split_signs(we)
    lam, nu = split_signs(wr)
    n, r = setup.n, setup.r
    hyp_size = (n - r) * (size(lam) + size(gamma)) + r * (size(nu) + size(delta)) \
        < setup.size_bound
    hyp_first = (nu[0] if nu else 0) + (delta[0] if delta else 0) < n - r
    hyp = hyp_size and hyp_first
    report = assemble(e1_page(params, InsertionSpec(b1=(we,), b2=(wr,))))
    if delta or nu:
        statement = "mixed-sign insertions have no cohomology"
        expected: dict[int, int] = {}
    else:
        statement = "partition insertions have only the degree-0 sections"
        dim0 = schur_dim(gamma, params.n1) * schur_dim(lam, params.n2)
        expected = {0: dim0} if dim0 else {}
    matches = None
    if hyp:
        matches = report.exact and report.table == expected
    notes = [] if hyp else ["hypotheses fail; statement vacuous on this instance"]
    return Verdict(statement, hyp, matches, expected, report, notes)


def verify_prop47(setup: QuotSetup, eta: Sequence[int], rho: Sequence[int]) -> Verdict:
    """Degree-concentration bound: nothing above |delta| + |nu|."""
    params = stromme(setup)
    we, wr = as_weight(eta, params.r1), as_weight(rho, params.r2)
    _, delta = split_signs(we)
    _, nu = split_signs(wr)
    bound = size(delta) + size(nu)
    report = assemble(e1_page(params, InsertionSpec(b1=(we,), b2=(wr,))))
    top = report.max_degree()
    matches = top is None or top <= bound
    return Verdict(f"no cohomology above degree {bound}", True, matches,
                   None, report)


@dataclass
class ExtResult:
    table: CohomTable
    hypotheses_hold: bool
    notes: list[str]


def ext_table(setup: QuotSetup, nu: Partition, lam: Partition) -> ExtResult:
    """Ext groups between Schur functors of the degree-(m-1) tautological bundle.

    Computed on the Grassmannian side: expand S^nu(B1)^dual x S^lambda(B1)
    into weights and sum the BWB tables.  Hypothesis violations are
    reported, not fatal.
    """
    params = stromme(setup)
    nu, lam = partition(nu), partition(lam)
    n, r = setup.n, setup.r
    notes = []
    hyp_first = not nu or nu[0] < n - r
    hyp_size = r * size(nu) + (n - r) * size(lam) < setup.size_bound
    if not hyp_first:
        notes.append(f"nu_1 = {nu[0]} is not below n - r = {n - r}")
    if not hyp_size:
        notes.append("size hypothesis fails")
    try:
        dual_nu = dual_entries(as_weight(nu, params.r1))
        lam_w = as_weight(lam, params.r1)
    except WeightLengthError:
        return ExtResult({}, hyp_first and hyp_size, notes + ["zero bundle"])
    table = coh_bundle(params.gr1, (), (dual_nu, lam_w))
    return ExtResult(table, hyp_first and hyp_size, notes)


@dataclass
class ClosedForm:
    table: CohomTable
    hypotheses_hold: bool
    degree: Optional[int]


def line_coh(e: int) -> tuple[int, int]:
    """(h^0, h^1) of the line bundle O(e) on P^1."""
    return max(e + 1, 0), max(-e - 1, 0)


def bundle_coh(splitting: Sequence[int], e: int) -> tuple[int, int]:
    """(h^0, h^1) of V(e) for V = sum O(-b_i)."""
    h0 = h1 = 0
    for bi in splitting:
        a, c = line_coh(e - bi)
        h0 += a
        h1 += c
    return h0, h1


def closed_form_multi(n: int, r: int, d: int, splitting: Sequence[int],
                      inserts: Sequence[tuple[int, Partition]]) -> ClosedForm:
    """Stable closed form for quotient-side Schur insertions.

    Each insert (e_j, lam_j) contributes the graded Schur functor of the
    cohomology of V(e_j): the piece S^{lam/nu}(H^0) x S^{nu^dag}(H^1)
    sits in degree |nu|.  When every V(e_j) has cohomology in a single
    degree this collapses to the single nonzero degree
    D = sum of |lam_j| over the H^1 factors.
    """
    setup = QuotSetup(n, r, d, splitting)
    inserts = [(e, partition(lam)) for e, lam in inserts]
    total = sum(size(lam) for _, lam in inserts)
    hyp = total * (n - r) < setup.size_bound
    table: CohomTable = {0: 1}
    for e, lam in inserts:
        h0, h1 = bundle_coh(setup.splitting, e)
        factor: CohomTable = {}
        for nu in subpartitions(lam):
            v = skew_dim(lam, nu, h0) * schur_dim(conjugate(nu), h1)
            if v:
                factor[size(nu)] = factor.get(size(nu), 0) + v
        table = kunneth(table, factor)
    table = {q: v for q, v in table.items() if v}
    degree = next(iter(table)) if len(table) == 1 else None
    return ClosedForm(table, hyp, degree)
