"""Exception types raised by the qstab library.

Input-shaped problems (bad matrices, mismatched dimensions, malformed files,
invalid models) derive from ``ValueError`` so callers can catch them broadly;
failures of internal self-checks derive from ``RuntimeError``.
"""


class QstabError(Exception):
    """Base class for all qstab errors."""


class DimensionMismatchError(QstabError, ValueError):
    """Operands do not share the required matrix dimension."""


class InvalidOperatorError(QstabError, ValueError):
    """Array cannot be interpreted as a finite square complex matrix."""


class NonHermitianError(QstabError, ValueError):
    """Matrix fails a required Hermiticity tolerance."""


class InvalidStateError(QstabError, ValueError):
    """Density matrix violates Hermiticity, positivity or unit trace."""


class InvalidModelError(QstabError, ValueError):
    """(H, L, S) triple violates a model invariant."""


class InvalidCandidateError(QstabError, ValueError):
    """Lyapunov candidate is empty, unclosed, or exceeds the degree bound."""


class UnsupportedScatteringError(QstabError, ValueError):
    """The collision simulator only supports trivial scattering (S = I)."""


class SamplingError(QstabError, RuntimeError):
    """Level-set sampling produced no feasible nonzero sample."""


class DegeneratePencilError(QstabError, RuntimeError):
    """Rate estimation hit a sample where the candidate value has no support."""


class FileFormatError(QstabError, ValueError):
    """A model/candidate/operator file is malformed; message names the field."""


class InternalCheckError(QstabError, RuntimeError):
    """An internal consistency self-check failed (likely a bug)."""
