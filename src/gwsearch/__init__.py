"""Budgeted depth-first search over critical Galton-Watson trees.

The package covers the full experimental loop: offspring laws (`offspring`),
tree sampling and preorder storage (`gwtree`), the budgeted search kernel
(`bdfs`), master/job-list orchestration and a parallel-machine simulator
(`scheduler`), exact and asymptotic restart-count analysis (`analysis`),
and a command-line front end (`cli`).
"""

from .offspring import (
    OffspringDistribution,
    builtin_names,
    make_builtin,
    make_custom,
    parse_spec,
)
from .gwtree import (
    AttemptsExhausted,
    Overflow,
    PreorderTree,
    read_tree,
    sample_at_least,
    sample_exact,
    sample_unconditional,
    write_tree,
)
from .bdfs import BudgetedSearchOutput, bdfs
from .scheduler import (
    POLICIES,
    SearchStats,
    SimReport,
    run_adaptive,
    run_single,
    simulate_parallel,
)
from .analysis import (
    MuEstimate,
    SizeLaw,
    Theorem1Report,
    enumerate_small_trees,
    mu_analytic,
    mu_exact,
    mu_mc,
    rational_pmf,
    size_pmf_asymptotic,
    size_pmf_exact,
    size_pmf_rational,
    tail_asymptotic,
    theorem1_check,
)
from .seeds import substream
from .verify import CriterionResult, run_acceptance

__version__ = "0.1.0"

__all__ = [
    "AttemptsExhausted",
    "BudgetedSearchOutput",
    "CriterionResult",
    "MuEstimate",
    "OffspringDistribution",
    "Overflow",
    "POLICIES",
    "PreorderTree",
    "SearchStats",
    "SimReport",
    "SizeLaw",
    "Theorem1Report",
    "bdfs",
    "builtin_names",
    "enumerate_small_trees",
    "make_builtin",
    "make_custom",
    "mu_analytic",
    "mu_exact",
    "mu_mc",
    "parse_spec",
    "rational_pmf",
    "read_tree",
    "run_acceptance",
    "run_adaptive",
    "run_single",
    "sample_at_least",
    "sample_exact",
    "sample_unconditional",
    "simulate_parallel",
    "size_pmf_asymptotic",
    "size_pmf_exact",
    "size_pmf_rational",
    "substream",
    "tail_asymptotic",
    "theorem1_check",
    "write_tree",
]
