"""Exception types raised across the package.

Everything derives from :class:`SmtlError` so callers can catch one base
class. The CLI maps these onto exit codes (data problems vs. numerical
failures); library users get precise types to branch on.
"""


class SmtlError(Exception):
    """Base class for all errors raised by this package."""


# --- numerical / linear algebra -------------------------------------------

class NonFinite(SmtlError):
    """An input array contains NaN or infinite entries."""


class NotPsd(SmtlError):
    """A matrix required to be positive semidefinite is not (beyond tolerance)."""


class NotStrictlyPd(SmtlError):
    """A matrix required to be strictly positive definite is singular."""


class NotPd(NotStrictlyPd):
    """Alias used by fixed-structure builders for a non-PD metric."""


class SingularMatrix(SmtlError):
    """A matrix that must be invertible is numerically singular."""


class SingularA(SingularMatrix, NotStrictlyPd):
    """A matrix that must be inverted (a barrier iterate, or the cluster
    map's ``A^{-1}(M)``) is not strictly positive definite (raised by
    :func:`smtl.linalg.pd_eigenvalues`)."""


class BadExponent(SmtlError):
    """A Schatten exponent outside the allowed range (p >= 1)."""


class DimensionMismatch(SmtlError):
    """Array shapes do not conform."""


class CgStall(SmtlError):
    """An observed-entry solve that no residual test can accept: the
    target's norm is not finite (on the one-hot or the ``"cg"`` route), or
    preconditioned CG on a masked fit's system stopped short of both its
    tolerance and the roundoff bound of its matrix-vector product (a
    restart from the true residual did not lower it, or 2m steps for m
    observed entries ran out) on more than ``max(n,
    smtl.solver.LU_LIMIT)`` unknowns, too many for the LU solve that takes
    over below that size. The message gives the target's norm, or the
    relative residual reached, the relative bound, m and the limit."""


class NonFiniteObjective(SmtlError):
    """The objective became NaN during optimization."""


# --- penalties and structures ----------------------------------------------

class BadPenaltyParam(SmtlError):
    """A penalty parameter is out of range (mu, r, epsilon weights, ...)."""


class BadRank(SmtlError):
    """A rank/budget parameter exceeds the matrix dimension or is not positive."""


class UnsupportedPenalty(SmtlError):
    """The requested operation is not defined for this penalty kind."""


class AsymmetricAdjacency(SmtlError):
    """A graph adjacency matrix is not symmetric."""


class InfeasiblePair(SmtlError):
    """(C, A) violates the range condition required by the convex problem."""


# --- data handling ----------------------------------------------------------

class ParseError(SmtlError):
    """A file could not be parsed. Carries a 1-based line number."""

    def __init__(self, line, reason):
        self.line = int(line)
        self.reason = reason
        super().__init__("line %d: %s" % (self.line, reason))


class InconsistentDimension(SmtlError):
    """A data row has a different number of features than the header."""


class EmptyTask(SmtlError):
    """A task index in [0, T) has no data rows."""

    def __init__(self, task):
        self.task = int(task)
        super().__init__("task %d has no data rows" % self.task)


class BadKernelParam(SmtlError):
    """A kernel parameter is invalid (e.g. gaussian width <= 0)."""


class ConfigError(SmtlError):
    """A run-configuration file is malformed. Carries a 1-based line number,
    or 0 when the problem is a value rejected after parsing."""

    def __init__(self, line, reason):
        self.line = int(line)
        self.reason = reason
        if self.line > 0:
            super().__init__("line %d: %s" % (self.line, reason))
        else:
            super().__init__(reason)


class VersionMismatch(SmtlError):
    """A model file was written with an unknown format version."""


# --- metrics ----------------------------------------------------------------

class BadLabel(SmtlError):
    """A class label is outside the valid range [0, T), or a task id is not
    a non-negative integer."""


class ZeroVariance(SmtlError):
    """A task's targets have zero variance; normalized MSE is undefined."""

    def __init__(self, task):
        self.task = int(task)
        super().__init__("task %d has zero target variance" % self.task)


class LengthMismatch(SmtlError):
    """Paired result sequences have different lengths."""


class NonPositiveNmse(SmtlError):
    """Normalized improvement needs strictly positive nMSE values."""
