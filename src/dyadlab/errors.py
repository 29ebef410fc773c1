"""Shared exception taxonomy.

The CLI maps these onto exit codes: file format problems exit 3, a
broken contract exits 1 like a failed verification check, and every
other package error is a configuration problem and exits 2.
"""


class DyadlabError(Exception):
    """Base class for all package errors."""


class ResourceError(DyadlabError):
    """A hard resource budget (the cell count, the bytes of one temporary
    array, a scan's size tuples, a norm estimate's iterations, grid
    verification work or a doubling bound's exponent) would be exceeded;
    raised before allocating or looping."""


class AlignmentError(DyadlabError):
    """A rectangle or point is not aligned to the cell raster."""


class ShapeError(DyadlabError):
    """Array shape or lattice mismatch between operands."""


class DomainError(DyadlabError):
    """A parameter is outside its admissible range."""


class ScopeError(DyadlabError):
    """A grid query needs levels outside the available range."""


class FormatError(DyadlabError):
    """A serialized weight or grid descriptor cannot be parsed."""


class ContractViolationError(DyadlabError):
    """A guaranteed search came up empty; indicates a genuine bug."""


class DegenerateSampleError(DyadlabError):
    """A Monte Carlo run produced no usable samples."""
