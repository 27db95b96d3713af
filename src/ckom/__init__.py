"""Simulation toolkit for an optomechanical cavity with cross-Kerr coupling:
photon-blockade statistics and mechanical Schroedinger-cat generation, in
both closed (unitary) and open (Lindblad) settings.

Imported before numpy, it runs OpenBLAS on one thread per process unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set: the solvers' products are
small and slower threaded; ``--jobs`` is the parallelism."""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .model import (
    SystemParams,
    delta_m,
    optimal_detuning,
    resonance_curve_g0,
    xi_m,
)
from .operators import (
    HilbertSpec,
    PropagatorFactors,
    build_h_sectors,
    build_mode_operators,
    expm,
    propagator_factored,
    propagator_factors,
)
from .blockade import (
    PhotonStats,
    detuned_photon_stats,
    photon_stats_exact,
    photon_stats_lamb_dicke,
)
from .lindblad import (
    DensityMatrix,
    LindbladSpec,
    apply_liouvillian,
    detuned_steady_state,
    evolve,
    make_lindblad,
    observables,
    steady_state,
    vacuum_density,
)
from .catstate import (
    CatSnapshot,
    ConditionalState,
    beta_theta,
    cat_snapshot,
    cat_state_vector,
    condition_open_system,
    detection_time,
    fidelity_vs_target,
    initial_superposition_density,
)
from .quasiprob import (
    PhaseSpaceGrid,
    quadrature_dist_cat,
    quadrature_dist_numeric,
    wigner_cat_analytic,
    wigner_marginal,
    wigner_numeric,
)

__version__ = "0.1.0"
