"""Toolkit-wide exception types."""

__all__ = ["SpectoError", "FormatError", "NumericalError", "TrainingDiverged"]


class SpectoError(Exception):
    """Base class for toolkit faults."""


class FormatError(SpectoError, ValueError):
    """Malformed input file (container, CSV, IDX), including non-finite entries."""


class NumericalError(SpectoError):
    """A numerical routine failed (non-convergence, overflow, divergence)."""


class TrainingDiverged(NumericalError):
    """Training loss became non-finite."""
