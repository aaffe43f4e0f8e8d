"""Spin squeezing and pairwise entanglement of symmetric multiqubit states."""

__version__ = "0.1.0"
