"""Exact cohomology of tautological bundles on Quot schemes over P^1.

Strategy: embed the Quot scheme in a product of two Grassmannians, resolve
by the Koszul complex of the cutting section, evaluate every term by
Borel-Weil-Bott, and assemble the spectral sequence conservatively.
"""

__version__ = "0.1.0"

from .partitions import (
    Partition,
    Weight,
    abacus_check,
    as_weight,
    conjugate,
    durfee_rank,
    negate_reverse,
    partition,
    partitions_in_box,
    shift,
    split_signs,
    t_eta_index,
    t_index,
)
from .schur import (
    cauchy_terms,
    direct_sum_expand,
    horn_predicates,
    lemma45_check,
    lr,
    lr_expand,
    schur_dim,
    skew_expand,
    weight_dim,
    weight_tensor_expand,
)
from .bwb import (
    BwbOutcome,
    GrSpec,
    bwb_dual_weights,
    coh_bundle,
    index_degree_bound,
    index_nonvanish,
    kunneth,
)
from .pipeline import (
    E1Page,
    InsertionSpec,
    KoszulTerm,
    QuotReport,
    QuotSetup,
    StrommeParams,
    assemble,
    closed_form_multi,
    e1_page,
    ext_table,
    koszul_terms,
    line_coh,
    stromme,
    verify_prop47,
    verify_thm41,
)
from .complexes import (
    HyperInsert,
    TwoTermComplex,
    hyper_cohomology,
    m_bracket_rep,
    schur_complex_terms,
    sx_cohomology,
    sx_resolution,
)
