"""Exception types shared across the library; a non-fatal finding is a ``risk.ValidationIssue`` warning instead."""


class RiskshareError(Exception):
    """Base class for all library-specific errors."""


class DocumentError(RiskshareError):
    """An input document cannot be parsed or does not match its schema."""


class ValidationError(RiskshareError):
    """Inputs are well-formed but violate a semantic contract."""


class UnknownLabelError(ValidationError):
    """A category label does not resolve in the configured scale."""

    def __init__(self, scale_name: str, label: str):
        super().__init__(f"label {label!r} does not resolve in scale {scale_name!r}")
        self.scale_name = scale_name
        self.label = label


class GameDefinitionError(ValidationError):
    """A coalition game definition violates its contract."""


class CapacityError(RiskshareError):
    """A request exceeds the configured exact-computation limits."""


class PayoutError(ValidationError):
    """A payout request violates its preconditions."""

