"""Exact branching rules, Casimir spectra and partial theta traces for the
sl(3) Borel and parabolic Verma modules."""

from .branching import (
    BranchingTable,
    BranchingTerm,
    branching_table,
    kappa_spectrum,
    trace_brute_force,
    trace_from_branching,
)
from .exactalg import QMatrix, kernel_basis, mat_scalar_shift, nullities, rank, rat
from .qseries import ExponentForm, FormalSeries, Monomial, Window
from .theta import ClosedFormId, verify_identity
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
    "VermaModule",
    "Window",
    "branching_table",
    "genericity_guard",
    "kappa_spectrum",
    "kernel_basis",
    "mat_scalar_shift",
    "nullities",
    "rank",
    "rat",
    "trace_brute_force",
    "trace_from_branching",
    "verify_identity",
]
