"""Spin squeezing and pairwise entanglement of symmetric multiqubit states."""

from .dicke import (
    CollectiveMoments,
    Parity,
    SymmetricState,
    collective_moments,
    make_all_down,
    make_dicke_state,
    make_state,
    mix_moments,
    parity_class,
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
    Trajectory,
    evolve_grid,
    hermitian_eigen,
    trajectory,
)
from .hamiltonians import (
    HamiltonianSpec,
    HermitianMatrix,
    SectorBand,
    build_hamiltonian,
    parity_check,
    sector_bands,
)
from .pairwise import (
    ConcurrenceResult,
    TwoQubitReduced,
    concurrence_spectral,
    concurrence_x_form,
    prop3_residual,
    reduced_two_qubit,
    squeezing_condition,
)
from .squeezing import (
    SqueezingResult,
    squeezing_even_odd,
    squeezing_from_correlation,
    squeezing_general,
    squeezing_lower_bound,
)

__version__ = "0.1.0"
