"""Schur complexes of two-term representations of tautological complexes.

Any twist of the universal sub or quotient admits a two-term resolution by
the two consecutive-degree tautological bundles of the embedding; Schur
functors of those complexes expand, degree by degree, into insertion
specifications the Koszul scan can evaluate.  Hypercohomology tables are
totalized under the same conservative policy as single scans, computed
along two independent representations (the direct quotient-side one and
the sub-side route through the section-space triangle) whose bounds are
intersected.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from .partitions import (
    InconsistencyError,
    Partition,
    parity_sign,
    conjugate,
    partition,
    size,
    subpartitions,
)
from .pipeline import (
    InsertionSpec,
    QuotReport,
    QuotSetup,
    StrommeParams,
    assemble,
    bundle_coh,
    e1_page,
    line_coh,
    pin_by_euler,
    resolve_page,
    stromme,
)
from .schur import _skew_expand, direct_sum_expand, schur_dim, schur_of_sum_copies, skew_dim

# A term key lists the partitions inserted on each of the four bundles.
TermKey = tuple[tuple[Partition, ...], tuple[Partition, ...],
                tuple[Partition, ...], tuple[Partition, ...]]
# degree -> {term key: multiplicity}
FormalTerms = dict[int, dict[TermKey, int]]

_KINDS = ("a1", "b1", "a2", "b2")
UNIT_KEY: TermKey = ((), (), (), ())


def _merge_keys(k1: TermKey, k2: TermKey) -> TermKey:
    return tuple(tuple(sorted(k1[i] + k2[i], reverse=True)) for i in range(4))


def _unit_terms() -> FormalTerms:
    return {0: {UNIT_KEY: 1}}


def _tensor_terms(f1: FormalTerms, f2: FormalTerms) -> FormalTerms:
    out: FormalTerms = {}
    for d1, terms1 in f1.items():
        for d2, terms2 in f2.items():
            bucket = out.setdefault(d1 + d2, {})
            for k1, m1 in terms1.items():
                for k2, m2 in terms2.items():
                    key = _merge_keys(k1, k2)
                    bucket[key] = bucket.get(key, 0) + m1 * m2
    return {d: {k: m for k, m in terms.items() if m}
            for d, terms in out.items() if terms}


def _accumulate(acc: FormalTerms, other: FormalTerms, scale: int, shift: int) -> None:
    if not scale:
        return
    for d, terms in other.items():
        bucket = acc.setdefault(d + shift, {})
        for k, m in terms.items():
            bucket[k] = bucket.get(k, 0) + scale * m


# Slots describe a direct sum of bundle copies and trivial summands:
# (kind, copies) with kind one of _KINDS or "triv" (copies = dimension).
Slot = tuple[str, int]


def _with_partition(key: TermKey, kind: str, theta: Partition) -> TermKey:
    if not theta:
        return key
    pos = _KINDS.index(kind)
    merged = list(key)
    merged[pos] = tuple(sorted(key[pos] + (theta,), reverse=True))
    return tuple(merged)


def _schur_of_slots(beta: Partition, slots: Sequence[Slot],
                    ranks: dict[str, int]) -> dict[TermKey, int]:
    """Decompose S^beta(direct sum of slots) into term keys with multiplicity.

    Bundle slots expand through the direct-sum rule recombined by LR;
    trivial slots contribute their exact Schur dimension as a scalar.
    beta must be canonical (every caller passes a built partition).
    """
    live = [s for s in slots if s[1] > 0]
    if not live:
        return {UNIT_KEY: 1} if not beta else {}
    out: dict[TermKey, int] = {}

    def emit(idx: int, here: Partition, rest: Partition, key: TermKey, mult: int):
        kind, copies = live[idx]
        if kind == "triv":
            scalar = schur_dim(here, copies)
            if not scalar:
                return
            results = {key: mult * scalar}
        else:
            results = {}
            for theta, m2 in schur_of_sum_copies(here, copies, ranks[kind]).items():
                nk = _with_partition(key, kind, theta)
                results[nk] = results.get(nk, 0) + mult * m2
        for nk, nm in results.items():
            if idx == len(live) - 1:
                out[nk] = out.get(nk, 0) + nm
            else:
                rec(idx + 1, rest, nk, nm)

    def rec(idx: int, remaining: Partition, key: TermKey, mult: int):
        if idx == len(live) - 1:
            emit(idx, remaining, (), key, mult)
            return
        for here, rest, c in direct_sum_expand(remaining):
            emit(idx, here, rest, key, mult * c)

    rec(0, beta, UNIT_KEY, 1)
    return out


def _two_term_schur(lam: Partition, left: Sequence[Slot], right: Sequence[Slot],
                    window: tuple[int, int], ranks: dict[str, int]) -> FormalTerms:
    """Degreewise terms of the Schur complex of [left -> right].

    Window (-1, 0) is the homological form (term S^{nu^dag}(left) x
    S^{lam/nu}(right) in degree -|nu|); window (0, 1) the cohomological
    form (S^{lam/nu}(left) x S^{nu^dag}(right) in degree +|nu|).  lam
    must be canonical.
    """
    if window == (-1, 0):
        straight_slots, skew_slots, sign = left, right, -1
    else:
        straight_slots, skew_slots, sign = right, left, 1
    out: FormalTerms = {}
    for nu in subpartitions(lam):
        straight_exp = _schur_of_slots(conjugate(nu), straight_slots, ranks)
        if not straight_exp:
            continue
        skew_exp: dict[TermKey, int] = {}
        for beta, c in _skew_expand(lam, nu).items():
            for k, m in _schur_of_slots(beta, skew_slots, ranks).items():
                skew_exp[k] = skew_exp.get(k, 0) + c * m
        bucket = out.setdefault(sign * size(nu), {})
        for k1, m1 in straight_exp.items():
            for k2, m2 in skew_exp.items():
                key = _merge_keys(k1, k2)
                bucket[key] = bucket.get(key, 0) + m1 * m2
    return {d: terms for d, terms in out.items() if terms}


def _ranks(params: StrommeParams) -> dict[str, int]:
    return {"a1": params.k1, "b1": params.r1, "a2": params.k2, "b2": params.r2}


# --------------------------------------------------- two-term representations


def _rep_window(setup: QuotSetup, e: int) -> tuple[tuple[int, int], int, int]:
    """Window and left/right slot multiplicities of the representation of O(e).

    Sections h^0 of O(e - m - 1) and O(e - m) in degrees [-1, 0] when
    e >= m, otherwise h^1 in degrees [0, 1].
    """
    if e >= setup.m:
        return (-1, 0), line_coh(e - setup.m - 1)[0], line_coh(e - setup.m)[0]
    return (0, 1), line_coh(e - setup.m - 1)[1], line_coh(e - setup.m)[1]


# ------------------------------------------------------------- hyper driver


def _terms_insert_L(setup: QuotSetup, ranks, e: int, lam: Partition,
                    side: str) -> FormalTerms:
    """Schur complex of the consecutive-twist representation of one insert."""
    window, lm, rm = _rep_window(setup, e)
    kinds = ("a1", "a2") if side == "sub" else ("b1", "b2")
    left = ((kinds[0], lm),)
    right = ((kinds[1], rm),)
    return _two_term_schur(lam, left, right, window, ranks)


def _terms_insert_theta(setup: QuotSetup, ranks, e: int, lam: Partition
                        ) -> Optional[FormalTerms]:
    """Quotient insert through the section-space triangle.

    O(e)^{[d]} is the cone of (sub-side complex) -> H(V(e)) x O; the three
    degree regimes give two-term complexes whose Schur terms reduce to
    sub-side insertions and trivial factors.  None when H(V(e)) lives in
    two degrees at once (no two-term representation of this shape).  lam
    must be canonical (`HyperInsert.lam`).
    """
    h0v, h1v = bundle_coh(setup.splitting, e)
    if h0v and h1v:
        return None
    out: FormalTerms = {}
    if e >= setup.d + setup.b:
        # [sub -> triv] in degrees [-1, 0]: S^{nu^dag}(sub) x S^{lam/nu}(triv)
        for nu in subpartitions(lam):
            scalar = skew_dim(lam, nu, h0v)
            if not scalar:
                continue
            inner = _terms_insert_L(setup, ranks, e, conjugate(nu), "sub")
            _accumulate(out, inner, scalar, -size(nu))
        return {d: terms for d, terms in out.items() if terms}
    window, lm, rm = _rep_window(setup, e)
    if window != (0, 1):
        raise InconsistencyError(f"twist {e} below m = {setup.m} has window {window}")
    if e >= 0:
        # 0 <= e < d + b: merged two-term [A1-slot -> A2-slot + triv].
        return _two_term_schur(lam, (("a1", lm),), (("a2", rm), ("triv", h0v)),
                               (-1, 0), ranks)
    # [W -> triv] in degrees [0, 1], W the shifted sub-side complex:
    # S^{lam/nu}(W) x S^{nu^dag}(triv) in degree |nu|; S^beta(W) is the
    # homological Schur complex of the (injective) two-term resolution.
    for nu in subpartitions(lam):
        scalar = schur_dim(conjugate(nu), h1v)
        if not scalar:
            continue
        for beta, c in _skew_expand(lam, nu).items():
            inner = _two_term_schur(beta, (("a1", lm),), (("a2", rm),),
                                    (-1, 0), ranks)
            _accumulate(out, inner, scalar * c, size(nu))
    return {d: terms for d, terms in out.items() if terms}


@dataclass(frozen=True)
class HyperInsert:
    """One Schur insertion: S^lam of O(e)^{[d]} ('quot') or O(e)^{{d}} ('sub')."""

    e: int
    lam: Partition
    side: str = "quot"

    def __post_init__(self):
        object.__setattr__(self, "lam", partition(self.lam))
        if self.side not in ("quot", "sub"):
            raise ValueError("side must be 'quot' or 'sub'")


_SCAN_CACHE: dict[tuple[QuotSetup, TermKey], QuotReport] = {}


def _term_report(setup: QuotSetup, key: TermKey) -> QuotReport:
    ck = (setup, key)
    hit = _SCAN_CACHE.get(ck)
    if hit is None:
        ins = InsertionSpec(a1=key[0], b1=key[1], a2=key[2], b2=key[3])
        hit = assemble(e1_page(stromme(setup), ins))
        _SCAN_CACHE[ck] = hit
    return hit


def _totalize(setup: QuotSetup, formal: FormalTerms) -> QuotReport:
    """Outer spectral page over the total complex of scanned term tables."""
    cells: dict[tuple[int, int], int] = {}
    soft = False
    reports = []
    for d, terms in formal.items():
        for k, m in terms.items():
            rep = _term_report(setup, k)
            reports.append((d, m, rep))
            if not rep.exact:
                soft = True
    chi = sum(parity_sign(d) * m * rep.euler for d, m, rep in reports)
    if not soft:
        for d, m, rep in reports:
            for q, v in rep.table.items():
                cells[(d, q)] = cells.get((d, q), 0) + m * v
        out = resolve_page(cells)
        if out.euler != chi:
            raise InconsistencyError(
                f"total complex has Euler characteristic {out.euler}, its terms {chi}")
        return out
    upper: dict[int, int] = {}
    lower: dict[int, int] = {}
    for d, m, rep in reports:
        for q, v in rep.upper.items():
            upper[d + q] = upper.get(d + q, 0) + m * v
    upper = {t: v for t, v in upper.items() if v and t >= 0}
    return QuotReport(chi, False, None, lower, upper, False,
                      notes=["per-term tables not all exact; bounds only"])


def _intersect(reports: list[QuotReport]) -> QuotReport:
    """Combine independently valid bounds; pin a single leftover degree."""
    if len(reports) == 1:
        return reports[0]
    chi = reports[0].euler
    if any(r.euler != chi for r in reports):
        raise InconsistencyError("independent routes disagree on the Euler characteristic")
    exact = [r for r in reports if r.exact]
    if exact:
        for other in reports:
            for t, v in exact[0].table.items():
                if not other.upper.get(t, 0) >= v >= other.lower.get(t, 0):
                    raise InconsistencyError(
                        f"exact degree {t} outside an independent route's bounds")
        return exact[0]
    degrees = set()
    for r in reports:
        degrees |= set(r.upper)
    upper = {t: min(r.upper.get(t, 0) for r in reports) for t in degrees}
    lower = {t: max(r.lower.get(t, 0) for r in reports) for t in degrees}
    upper = {t: v for t, v in upper.items() if v}
    lower = {t: v for t, v in lower.items() if v}
    if any(lower.get(t, 0) > upper.get(t, 0) for t in degrees):
        raise InconsistencyError("independent routes produced disjoint bounds")
    notes = ["intersection of independent representations"]
    uncertain = [t for t in degrees if upper.get(t, 0) != lower.get(t, 0)]
    exact_now = pin_by_euler(chi, lower, upper, uncertain, notes)
    table = dict(upper) if exact_now else None
    return QuotReport(chi, exact_now, table, lower, upper, False, [], notes)


def _insert_norm(inserts) -> list[HyperInsert]:
    return [i if isinstance(i, HyperInsert) else HyperInsert(*i) for i in inserts]


def hyper_cohomology(setup: QuotSetup, inserts) -> QuotReport:
    """Cohomology table of a tensor product of Schur insertions.

    Evaluated along the consecutive-twist route and, when available, the
    section-space-triangle route; each totalization is conservative, the
    Euler characteristics must agree exactly, and the per-degree bounds
    are intersected (with single-degree Euler pinning).
    """
    inserts = _insert_norm(inserts)
    ranks = _ranks(stromme(setup))
    routes: list[FormalTerms] = []
    total_l = _unit_terms()
    for ins in inserts:
        total_l = _tensor_terms(total_l,
                                _terms_insert_L(setup, ranks, ins.e, ins.lam,
                                                ins.side))
    routes.append(total_l)
    total_t: Optional[FormalTerms] = _unit_terms()
    for ins in inserts:
        if ins.side == "sub":
            f = _terms_insert_L(setup, ranks, ins.e, ins.lam, "sub")
        else:
            f = _terms_insert_theta(setup, ranks, ins.e, ins.lam)
        if f is None or total_t is None:
            total_t = None
            break
        total_t = _tensor_terms(total_t, f)
    if total_t is not None:
        routes.append(total_t)
    reports = [_totalize(setup, f) for f in routes]
    return _intersect(reports)


def sx_cohomology(setup: QuotSetup, lam: Partition) -> QuotReport:
    """Cohomology of a Schur functor of the sub bundle restricted to a fiber,
    through the resolution by the two consecutive sub-side bundles."""
    ranks = _ranks(stromme(setup))
    formal = _two_term_schur(partition(lam), (("a1", 1),), (("a2", 1),),
                             (-1, 0), ranks)
    return _totalize(setup, formal)

