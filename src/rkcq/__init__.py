"""Runge-Kutta convolution quadrature for hyperbolic kernels.

Gauss and Radau IIA tableaux, stability analysis of the underlying Pade
approximants, CQ weight computation by scaled FFT, built-in scalar kernels,
and a 2D boundary-element realization of inverse-single-layer and
Dirichlet-to-Neumann transfer operators.
"""

from .tableaux import (
    ButcherTableau,
    gauss_tableau,
    radau_iia_tableau,
    stability_eval,
    verify_invertibility_and_simplicity,
    verify_eigenvector_nondegeneracy,
    tableau_to_json,
    tableau_from_json,
)
from .engine import (
    TransferFunction,
    CQWeightSet,
    delta_matrix,
    compute_weights,
    apply_cq,
    sample_stage_signal,
    scalar_reference_solution,
    save_weights,
    load_weights,
)
from .kernels import (
    eval_kmu,
    kmu_transfer,
    power_transfer,
    eval_datum,
    sin_pow_exp,
    monomial_bump,
    traveling_gaussian,
)
from . import stability
from . import bessel
from . import bem
from . import harness

__version__ = "0.1.0"
