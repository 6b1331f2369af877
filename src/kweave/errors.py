"""Exception types shared across the package.

Every error raised on bad input or a refused computation derives from
:class:`KweaveError`, so callers (notably the CLI) can distinguish
"your input is wrong" from genuine bugs.
"""

from __future__ import annotations


class KweaveError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(KweaveError):
    """A square matrix was required."""


class NotHermitian(KweaveError):
    """Symmetry deviation exceeded the Hermitian tolerance."""


class ShapeMismatch(KweaveError):
    """Matrices or frames with incompatible shapes were combined."""


class ZeroOperator(KweaveError):
    """An operator with no singular value above the rank threshold."""


class ZeroK(KweaveError):
    """K is numerically zero; lower-bound statements would be vacuous."""


class InvalidPartition(KweaveError):
    """A partition assignment is malformed for the given family."""


class CapExceeded(KweaveError):
    """A partition table was requested beyond the partition cap."""


class HypothesesViolated(KweaveError):
    """A named hypothesis of the perturbation bound fails on the input."""


class DimTooSmall(KweaveError):
    """A built-in example family needs a larger ambient dimension."""


class InvalidInput(KweaveError):
    """A file could not be parsed into a valid frame/operator/report."""


class NearSingularWarning(UserWarning):
    """K has a positive singular value close to the rank threshold.

    The perturbation condition divides by sigma_min_pos(K), and a lower
    bound is 0 or not depending on whether K's small singular directions
    reach into the null space of S, so both are extremely sensitive to
    roundoff when K is nearly rank-deficient.
    """
