"""Simulator for a dissipative nonlinear optomechanical quantum memory.

Builds the two-mode Kerr/anharmonic Hamiltonian with thermal Lindblad
dissipators, evolves stored coherent states under the master equation, and
quantifies information degradation through Wigner snapshots, amplitude
time series and collapse/revival detection.
"""

from .fock import HilbertDims, QOperator, annihilation, embed, expectation, identity, number
from .states import (
    DensityMatrix,
    Ket,
    coherent_ket,
    fock_ket,
    partial_trace,
    product_dm,
    vacuum_ket,
)
from .liouvillian import (
    SystemParams,
    Superoperator,
    combined_kerr_liouvillian,
    dissipator,
    hamiltonian,
    kelvin_to_au,
    liouvillian,
    thermal_occupation,
)
from .evolve import (
    EvolveOptions,
    IntegrationFailure,
    TimeGrid,
    Trajectory,
)
from .wigner import (
    PhaseSpaceGrid,
    WignerField,
    min_value,
    negativity_volume,
)
from .revival import RevivalReport, detect_revival_series, detect_revivals, revival_time, sweep_summary

__version__ = "0.1.0"
