"""Schur complexes of two-term representations of tautological complexes.

Any twist of the universal sub or quotient is a two-term complex of the two
consecutive-degree tautological bundles of the embedding, and the
section-space triangle gives the quotient side a second two-term form.  One
rule (Akin-Buchsbaum-Weyman), `_two_term_schur`, expands every Schur functor
of such a complex, S^lam([X -> Y]) = sum over nu of S^{nu^dag}(X) x
S^{lam/nu}(Y) in degree -|nu|, into `InsertionSpec` terms on the four
universal bundles A1, B1, A2, B2, which the Koszul scan evaluates and which
key its memo as they are.  Hypercohomology tables are totalized under the same
conservative policy as single scans, computed along the two independent
representations, whose bounds are intersected.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Callable

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
    EMPTY_INSERTION,
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
from .schur import _skew_expand, direct_sum_expand, schur_dim, schur_of_sum_copies

# degree -> {insertion of partitions, each slot sorted: multiplicity}
FormalTerms = dict[int, dict[InsertionSpec, int]]


def _merge_keys(k1: InsertionSpec, k2: InsertionSpec) -> InsertionSpec:
    return InsertionSpec(*[tuple(sorted(s1 + s2, reverse=True))
                           for s1, s2 in zip(k1, k2)])


def _unit_terms() -> FormalTerms:
    return {0: {EMPTY_INSERTION: 1}}


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
    for d, terms in other.items():
        bucket = acc.setdefault(d + shift, {})
        for k, m in terms.items():
            bucket[k] = bucket.get(k, 0) + scale * m


# S^beta of one term of a two-term complex, as a function of beta.
Term = Callable[[Partition], FormalTerms]


def _copies(kind: str, copies: int, rank: int) -> Term:
    """S^beta of `copies` copies of the universal bundle `kind` of rank
    `rank`, decomposed into S^theta of one copy.  beta must be canonical."""
    def term(beta: Partition) -> FormalTerms:
        if not copies:
            return _unit_terms() if not beta else {}
        keys = {InsertionSpec(**{kind: (theta,) if theta else ()}): m
                for theta, m in schur_of_sum_copies(beta, copies, rank).items()}
        return {0: keys} if keys else {}
    return term


def _trivial(h: int) -> Term:
    """S^beta of a trivial bundle of rank h: its dimension, as a scalar."""
    def term(beta: Partition) -> FormalTerms:
        dim = schur_dim(beta, h)
        return {0: {EMPTY_INSERTION: dim}} if dim else {}
    return term


def _direct_sum(first: Term, second: Term) -> Term:
    """S^beta of first + second through the LR direct-sum rule."""
    def term(beta: Partition) -> FormalTerms:
        out: FormalTerms = {}
        for alpha, gamma, c in direct_sum_expand(beta):
            _accumulate(out, _tensor_terms(first(alpha), second(gamma)), c, 0)
        return out
    return term


def _two_term_schur(lam: Partition, left: Term, right: Term,
                    window: tuple[int, int]) -> FormalTerms:
    """Degreewise terms of the Schur complex of [left -> right].

    Window (-1, 0) is the homological form (term S^{nu^dag}(left) x
    S^{lam/nu}(right) in degree -|nu|); window (0, 1) the cohomological
    form (S^{lam/nu}(left) x S^{nu^dag}(right) in degree +|nu|).  lam
    must be canonical.
    """
    if window == (-1, 0):
        straight, skew, sign = left, right, -1
    else:
        straight, skew, sign = right, left, 1
    out: FormalTerms = {}
    for nu in subpartitions(lam):
        straight_exp = straight(conjugate(nu))
        if not straight_exp:
            continue
        skew_exp: FormalTerms = {}
        for beta, c in _skew_expand(lam, nu).items():
            _accumulate(skew_exp, skew(beta), c, 0)
        _accumulate(out, _tensor_terms(straight_exp, skew_exp), 1, sign * size(nu))
    return out


def _ranks(params: StrommeParams) -> dict[str, int]:
    ranks = (params.k1, params.r1, params.k2, params.r2)
    return dict(zip(InsertionSpec._fields, ranks))


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
    left, right = ("a1", "a2") if side == "sub" else ("b1", "b2")
    return _two_term_schur(lam, _copies(left, lm, ranks[left]),
                           _copies(right, rm, ranks[right]), window)


def _terms_insert_theta(setup: QuotSetup, ranks, e: int, lam: Partition) -> FormalTerms:
    """Quotient insert through the section-space triangle.

    O(e)^{[d]} is the cone of (sub-side complex) -> H(V(e)) x O, so each
    degree regime is one two-term complex for `_two_term_schur`:
    [sub-side insert -> H^0] when e >= d + b and [A1 copies -> A2 copies
    + H^0] when 0 <= e < d + b, both in degrees [-1, 0]; [W -> H^1] in
    degrees [0, 1] when e < 0, S^beta(W) the homological Schur complex of
    the sub-side resolution W.  H(V(e)) must live in one degree
    (`hyper_cohomology` asks for no other).  lam must be canonical
    (`HyperInsert.lam`).
    """
    h0v, h1v = bundle_coh(setup.splitting, e)
    if e >= setup.d + setup.b:
        return _two_term_schur(
            lam, lambda beta: _terms_insert_L(setup, ranks, e, beta, "sub"),
            _trivial(h0v), (-1, 0))
    window, lm, rm = _rep_window(setup, e)
    if window != (0, 1):
        raise InconsistencyError(f"twist {e} below m = {setup.m} has window {window}")
    a1, a2 = _copies("a1", lm, ranks["a1"]), _copies("a2", rm, ranks["a2"])
    if e >= 0:
        return _two_term_schur(lam, a1, _direct_sum(a2, _trivial(h0v)), (-1, 0))
    return _two_term_schur(lam, lambda beta: _two_term_schur(beta, a1, a2, (-1, 0)),
                           _trivial(h1v), (0, 1))


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


_SCAN_CACHE: dict[tuple[QuotSetup, InsertionSpec], QuotReport] = {}


def _term_report(setup: QuotSetup, key: InsertionSpec) -> QuotReport:
    ck = (setup, key)
    hit = _SCAN_CACHE.get(ck)
    if hit is None:
        hit = assemble(e1_page(stromme(setup), key))
        _SCAN_CACHE[ck] = hit
    return hit


def _totalize(setup: QuotSetup, formal: FormalTerms) -> QuotReport:
    """Outer spectral page over the total complex of scanned term tables."""
    reports = [(d, m, _term_report(setup, k))
               for d, terms in formal.items() for k, m in terms.items()]
    chi = sum(parity_sign(d) * m * rep.euler for d, m, rep in reports)
    if all(rep.exact for _, _, rep in reports):
        cells: dict[tuple[int, int], int] = {}
        for d, m, rep in reports:
            for q, v in rep.table.items():
                cells[(d, q)] = cells.get((d, q), 0) + m * v
        out = resolve_page(cells)
        if out.euler != chi:
            raise InconsistencyError(
                f"total complex has Euler characteristic {out.euler}, its terms {chi}")
        return out
    upper: dict[int, int] = {}
    for d, m, rep in reports:
        for q, v in rep.upper.items():
            upper[d + q] = upper.get(d + q, 0) + m * v
    upper = {t: v for t, v in upper.items() if v and t >= 0}
    return QuotReport(chi, False, None, {}, upper, False,
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
        table = exact[0].table
        for other in reports:
            for t in table.keys() | other.upper.keys() | other.lower.keys():
                if not other.upper.get(t, 0) >= table.get(t, 0) >= other.lower.get(t, 0):
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


def hyper_cohomology(setup: QuotSetup, inserts) -> QuotReport:
    """Cohomology table of a tensor product of Schur insertions.

    Evaluated along the consecutive-twist route and, when the cohomology
    H(V(e)) of every quotient insert lives in one degree, the
    section-space-triangle route, which reuses each sub-side insert's
    consecutive-twist terms; each totalization is conservative, the Euler
    characteristics must agree exactly, and the per-degree bounds are
    intersected (with single-degree Euler pinning).
    """
    inserts = [i if isinstance(i, HyperInsert) else HyperInsert(*i) for i in inserts]
    ranks = _ranks(stromme(setup))
    terms_l = [_terms_insert_L(setup, ranks, i.e, i.lam, i.side) for i in inserts]
    routes = [terms_l]
    if all(i.side == "sub" or 0 in bundle_coh(setup.splitting, i.e) for i in inserts):
        routes.append([f if i.side == "sub" else _terms_insert_theta(setup, ranks, i.e, i.lam)
                       for i, f in zip(inserts, terms_l)])
    reports = [_totalize(setup, reduce(_tensor_terms, terms, _unit_terms()))
               for terms in routes]
    return _intersect(reports)


def sx_cohomology(setup: QuotSetup, lam: Partition) -> QuotReport:
    """Cohomology of a Schur functor of the sub bundle restricted to a fiber,
    through the resolution by the two consecutive sub-side bundles."""
    ranks = _ranks(stromme(setup))
    formal = _two_term_schur(partition(lam), _copies("a1", 1, ranks["a1"]),
                             _copies("a2", 1, ranks["a2"]), (-1, 0))
    return _totalize(setup, formal)

