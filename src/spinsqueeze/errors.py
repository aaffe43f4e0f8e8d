"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """An eigensolver or spectral routine violated its accuracy contract."""


class CapacityError(ValueError):
    """Requested system size exceeds the full tensor-product oracle's cap."""


class NotEvenOddError(ValueError):
    """State lacks the vanishing transverse moments of an even/odd state."""


class NotXFormError(ValueError):
    """Two-qubit reduced matrix has off-anti-diagonal coherences; the
    closed-form concurrence does not apply."""
