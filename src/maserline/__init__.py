"""Micromaser photon statistics and linewidth on a truncated Fock basis.

The package computes the steady state of the micromaser/laser master
equation and its linewidth by several independent routes: the exact
trace formula with its dephasing/gain breakdown, the generic
jump-operator trace, the quantum-regression initial slope, the spectral
decomposition of the coherence sector, and the classic closed-form
approximations, plus a uniform few-operator approximation for broadly
distributed interaction times.
"""

from .averages import TrigAverages, quadrature_nodes, refine_until_stable
from .errors import (
    ConfigError,
    IntegrationError,
    MaserlineError,
    QuadratureError,
    ResourceLimitError,
    SpectralError,
    TruncationError,
    VacuumStateError,
)
from .linewidth import (
    LinewidthBreakdown,
    linewidth_components,
    linewidth_exp_closed,
    linewidth_exp_scully,
    linewidth_lindblad_trace,
    linewidth_mcgowan,
    linewidth_scully,
    schawlow_townes_ratio,
)
from .model import (
    DiscreteTau,
    ExponentialTau,
    FixedTau,
    MaserParams,
)
from .regression import (
    DenseLindblad,
    SidebandGenerator,
    SpectralDecomposition,
    build_sideband_generator,
    correlate,
    embed_sideband,
    extract_sideband,
    initial_sideband,
    linewidth_from_slope,
    offsector_mass,
    spectral_decomposition,
    spectrum_and_fwhm,
)
from .steady import (
    PhotonStatistics,
    auto_truncation,
    steady_state,
)
from .uniform import (
    LaguerreAverages,
    build_uniform_lindblad,
    uniform_generator,
    uniform_linewidth,
    uniform_steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DenseLindblad",
    "DiscreteTau",
    "ExponentialTau",
    "FixedTau",
    "IntegrationError",
    "LaguerreAverages",
    "LinewidthBreakdown",
    "MaserParams",
    "MaserlineError",
    "PhotonStatistics",
    "QuadratureError",
    "ResourceLimitError",
    "SidebandGenerator",
    "SpectralDecomposition",
    "SpectralError",
    "TrigAverages",
    "TruncationError",
    "VacuumStateError",
    "auto_truncation",
    "build_sideband_generator",
    "build_uniform_lindblad",
    "correlate",
    "embed_sideband",
    "extract_sideband",
    "initial_sideband",
    "linewidth_components",
    "linewidth_exp_closed",
    "linewidth_exp_scully",
    "linewidth_from_slope",
    "linewidth_lindblad_trace",
    "linewidth_mcgowan",
    "linewidth_scully",
    "offsector_mass",
    "quadrature_nodes",
    "refine_until_stable",
    "schawlow_townes_ratio",
    "spectral_decomposition",
    "spectrum_and_fwhm",
    "steady_state",
    "uniform_generator",
    "uniform_linewidth",
    "uniform_steady_state",
]
