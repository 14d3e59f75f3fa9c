"""Exception types raised by validation checks throughout the package."""


class ParwalkError(ValueError):
    """Base class for all validation failures."""


class DimensionMismatch(ParwalkError):
    pass


class NotErgodic(ParwalkError):
    pass


class NotReversible(ParwalkError):
    pass


class SpectrumOutOfRange(ParwalkError):
    pass


class NotSymmetric(ParwalkError):
    pass


class NotSymmetricProposal(NotSymmetric):
    pass


class NotSymmetricUnitary(NotSymmetric):
    pass


class BadWeights(ParwalkError):
    pass


class WeightMismatch(ParwalkError):
    pass


class FunctionalEquationViolated(ParwalkError):
    pass


class NegativeDiagonal(ParwalkError):
    pass


class DecompositionMismatch(ParwalkError):
    pass


class NonPowerOfTwoDim(ParwalkError):
    pass


class EnergyOutOfRange(ParwalkError):
    pass


class NormTooLarge(ParwalkError):
    pass


class ScaleMismatch(ParwalkError):
    pass


class SpectrumMismatch(ParwalkError):
    pass


class BoundViolated(ParwalkError):
    pass


class ParseError(ParwalkError):
    pass


class TooManyVariables(ParwalkError):
    pass
