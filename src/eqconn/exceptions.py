"""Exception types shared across the package.

Two families: ``ValidationFailure`` covers violated invariants on inputs
(reported with exit code 2 by the command line tool), ``NumericFailure``
covers internal numerical breakdowns (exit code 1).  ``SpectrumCollision``
is a ``ValidationFailure`` raised by a solve whose spectra collide; the
command line counts it a numerical failure, exit code 1.
"""


class ValidationFailure(ValueError):
    """An input violates a documented invariant."""


class NumericFailure(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class SpectrumCollision(ValidationFailure):
    """Sylvester-type equation with overlapping spectra; no unique solution."""

    def __init__(self, lam_left, lam_right, gap):
        self.lam_left = lam_left
        self.lam_right = lam_right
        self.gap = gap
        super().__init__(
            "spectra collide: eigenvalue %s of the left matrix is within "
            "%.3e of eigenvalue %s of the right matrix" % (lam_left, gap, lam_right)
        )


class RegularityViolation(ValidationFailure):
    """A connection matrix acquired (or was given) a pole at the origin."""


class SingularB(ValidationFailure):
    """The dilation matrix B (or its constant term) is not invertible."""


class EquivarianceViolation(ValidationFailure):
    """The connection and the dilation action fail to commute."""


class NonConstantB(ValidationFailure):
    """Normalization left a non-constant dilation matrix at the given order."""


class TransversalMismatch(ValidationFailure):
    """Two normal forms refer to different strips (or moduli) and cannot mix."""
