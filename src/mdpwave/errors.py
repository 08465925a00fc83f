"""Exception types shared across the toolkit."""


class MdpWaveError(Exception):
    """Base class for all toolkit errors."""


class UnboundSymbol(MdpWaveError):
    """A variable was not bound at evaluation time."""


class ConstraintViolation(MdpWaveError):
    """One or more admissibility predicates failed.  `violations` lists
    every failed predicate as a short human-readable string."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnclassifiableCoefficients(MdpWaveError):
    """The coefficient triple matches none of the supported closed-form cases."""


class SampleAtPole(MdpWaveError):
    """A collocation sample point could not be moved off a pole."""


class AllPointsSkipped(MdpWaveError):
    """Every grid point fell inside the singularity guard zone."""
