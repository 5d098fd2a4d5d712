"""Numerical tolerances used across the package, collected in one record."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances for validation and structure checks.

    Every tolerance that gates an invariant check lives here.  Each bounds a
    quantity at the scale of the input it checks, unless its comment names
    what magnifies the quantity, or its rounding, between input and check.
    """

    # Operator validity
    hermiticity: float = 1e-10          # max |M - M^dag| entry; U M U^dag, tr_B grow it d-fold
    psd_min_eig: float = 1e-10          # allowed negative eigenvalue dip; tr_B grows it d_B-fold
    trace_upper_slack: float = 1e-10    # trace may exceed 1 by this much; a gate adds unitarity
    trace_lower_slack: float = 1e-8     # trace may dip below 0 by this much
    pure_norm: float = 1e-12            # |norm^2 - 1| for state vectors
    unitarity: float = 5e-11            # row-sum bound on the trace U adds: half the slack
    projector: float = 1e-10            # idempotence / orthogonality of projectors
    isbs_projector: float = 1e-9        # rank-1 trace and basis alignment of ISBS specs

    # Entropic quantities
    entropy_eig_cutoff: float = 1e-12   # eigenvalues below this contribute 0
    entropy_trace: float = 1e-6         # required |trace - 1| for entropy input
    info_condition: float = 1e-6        # mutual-information / discord thresholds
    discord_ftol: float = 1e-6          # simplex refinement function tolerance

    # Objectivity structure checks
    block_diagonal: float = 1e-8        # off-diagonal system blocks
    conditional_orthogonality: float = 1e-8  # nuclear norm of rho_i rho_j; 1/p grows rounding
    conditional_purity: float = 1e-8    # non-leading eigenvalue mass; 1/p grows rounding
    conditional_skip: float = 1e-10     # probabilities at or below this are skipped

    # Protocol
    witness_bound_slack: float = 1e-9   # witness <= measure + slack
    mc_abort_window: int = 100_000      # attempts without success before abort


TOL = Tolerances()
