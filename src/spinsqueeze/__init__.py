"""Spin squeezing and pairwise entanglement of symmetric multiqubit states."""

from .dicke import (
    CollectiveMoments,
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
    mix_moments,
)
from .errors import (
    CapacityError,
    MeanSpinDegenerateError,
    NotEvenOddError,
    NotXFormError,
    NumericalError,
)
from .evolution import (
    Propagator,
    evolve_blocks,
    evolve_grid,
    hermitian_eigen,
    propagate,
    trajectory,
)
from .hamiltonians import (
    HamiltonianSpec,
    SectorBand,
    build_hamiltonian,
    parity_check,
    sector_bands,
)
from .pairwise import (
    ConcurrenceResult,
    TwoQubitReduced,
    analyse,
    concurrence_spectral,
    concurrence_x_form,
    prop3_residual,
    reduced_two_qubit,
)
from .squeezing import squeezing_even_odd, squeezing_general

__version__ = "0.1.0"
