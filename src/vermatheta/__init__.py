"""Exact branching rules, Casimir spectra and partial theta traces for the
sl(3) Borel and parabolic Verma modules."""

from .branching import (
    BranchingTable,
    BranchingTerm,
    branching_table,
    kappa_spectrum,
    singular_dimension,
    trace_brute_force,
    trace_from_branching,
)
from .exactalg import QMatrix, kernel_basis, mat_scalar_shift, rank, rat
from .qseries import ExponentForm, FormalSeries, Monomial, Window
from .theta import ClosedFormId, VerifyReport, closed_form, verify_identity
from .verma import BOREL, PARABOLIC, Gen, ModuleSpec, Root, VermaModule, genericity_guard

__version__ = "0.1.0"

__all__ = [
    "BOREL",
    "PARABOLIC",
    "BranchingTable",
    "BranchingTerm",
    "ClosedFormId",
    "ExponentForm",
    "FormalSeries",
    "Gen",
    "ModuleSpec",
    "Monomial",
    "QMatrix",
    "Root",
    "VerifyReport",
    "VermaModule",
    "Window",
    "branching_table",
    "closed_form",
    "genericity_guard",
    "kappa_spectrum",
    "kernel_basis",
    "mat_scalar_shift",
    "rank",
    "rat",
    "singular_dimension",
    "trace_brute_force",
    "trace_from_branching",
    "verify_identity",
]
