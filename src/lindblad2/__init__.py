"""Dissipative qubit dynamics: equivalent dissipator forms, complete
positivity checks, Bloch-vector evolution, and asymptotic-state analysis."""

from .core import (
    DensityState,
    Hamiltonian,
    SIGMA,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    IDENTITY2,
    bloch_from_density,
    density_from_bloch,
    density_from_matrix,
    entropy_from_bloch,
    von_neumann_entropy,
)
from .forms import (
    FormA,
    FormB,
    FormE,
    apply_dissipator,
    delta_hamiltonian,
    dissipation_from_gram,
    dissipation_matrix,
    form_a_from_form_b,
    form_a_to_form_b,
    form_b_from_dissipation,
    form_b_from_gram,
    form_e_pack,
    form_e_unpack,
    gks_matrix,
    gks_minimal,
    gram_decompose,
    gram_from_dissipation,
    gram_from_form_b,
    plane_projector,
    reduce_terms,
    trace_split,
)
from .cpcheck import (
    Verdict,
    check_form_e,
    check_gram_psd,
    choi_check,
    is_completely_positive,
)
from .dynamics import (
    Generator,
    Trajectory,
    build_generator,
    entropy_monotonicity_report,
    evolve_bloch,
    evolve_density,
    evolve_expm,
    evolve_rk4,
    generator_spectrum,
    liouvillian,
)
from .asymptotics import (
    AsymptoteReport,
    AsymptoticVerdict,
    asymptotic_state,
    classify,
    spectral_gap,
    verify_asymptote,
)
from . import errors, tolerances

__version__ = "0.1.0"
