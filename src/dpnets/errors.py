"""Exception types shared across the package."""

__all__ = [
    "ConstructionError",
    "InfeasibleTargetError",
    "NetworkError",
    "NumericOverflowError",
    "ShapeMismatchError",
    "SizeGuardError",
]


class NetworkError(Exception):
    """Base class for network construction and evaluation failures."""


class ShapeMismatchError(NetworkError):
    """Input vector length does not match the network's input layer."""


class NumericOverflowError(NetworkError):
    """Evaluation produced non-finite values, or magnitudes would leave the
    range in which double-precision arithmetic on the construction is exact."""


class ConstructionError(NetworkError):
    """Structurally invalid network description."""


class SizeGuardError(ValueError):
    """Refusing an operation whose state space would be unreasonably large."""


class InfeasibleTargetError(ValueError):
    """Requested profit target is not achievable in the given table."""
