"""Exception and warning types shared across the library."""


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


class ClampWarning(UserWarning):
    """A threat's risk difference was clamped at zero."""


class CommitLogWarning(UserWarning):
    """Non-fatal oddity in commit-log evidence (unknown trailer key, unmapped identity, empty window)."""
