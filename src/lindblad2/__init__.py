"""Dissipative qubit dynamics: equivalent dissipator forms, complete
positivity checks, Bloch-vector evolution, and asymptotic-state analysis.

The public names below are resolved on first use (PEP 562), so importing
the package, or ``lindblad2.cli`` for one command, compiles only the
modules that the caller reaches: ``check`` never loads ``dynamics`` or
``asymptotics``. ``from lindblad2 import *`` and ``dir(lindblad2)`` still
list every name.
"""

import importlib

_EXPORTS = {
    "core": """DensityState Hamiltonian SIGMA SIGMA_X SIGMA_Y SIGMA_Z IDENTITY2
        bloch_from_density density_from_bloch density_from_matrix
        entropy_from_bloch von_neumann_entropy""",
    "forms": """FormA FormB FormE apply_dissipator delta_hamiltonian
        dissipation_from_gram dissipation_matrix form_a_from_form_b
        form_a_to_form_b form_b_from_dissipation form_b_from_gram form_e_pack
        form_e_unpack gks_matrix gks_minimal gram_decompose
        gram_from_dissipation gram_from_form_b plane_projector reduce_terms
        trace_split""",
    "cpcheck": "Verdict check_form_e check_gram_psd choi_check is_completely_positive",
    "dynamics": """Generator Trajectory build_generator entropy_monotonicity_report
        evolve_bloch evolve_density evolve_expm evolve_rk4 generator_spectrum
        liouvillian""",
    "asymptotics": """AsymptoteReport AsymptoticVerdict asymptotic_state classify
        spectral_gap verify_asymptote""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "errors", "tolerances")

__all__ = [*_HOME, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
