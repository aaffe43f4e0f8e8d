"""NumericalError, the one failure the CLI tells apart from a ValueError: a
numerical contract violation exits 3, a state or size outside a claim exits 2."""


class NumericalError(RuntimeError):
    """An eigensolver or spectral routine violated its accuracy contract."""
