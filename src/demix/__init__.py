"""Joint blind deconvolution / blind demixing by nuclear-norm minimization.

Recover r pairs (h_i, x_i) from one length-L observation
y = sum_i diag(B_i h_i) A_i x_i by lifting each pair to the rank-one
matrix X_i = h_i x_i^* and minimizing sum_i ||Z_i||_* subject to the
linear measurements. Submodules:

ensemble     instance generation (B/A matrices, truth, noise), serialization
lifting      the measurement operators, their adjoints, composite and Gram forms
incoherence  partitions, coherence parameters, tangent-space diagnostics
solver       ADMM solver (equality- and noise-ball-constrained), scoring
certificate  golfing-scheme dual certificate construction and checks
harness      Monte-Carlo experiment grids, CSV/SVG outputs
cli          command-line entry point
"""

__version__ = "0.1.0"

from .ensemble import (  # noqa: F401
    EnsembleSpec,
    Ensemble,
    synthesize,
    make_ensemble,
    from_matrices,
    save_ensemble,
    load_ensemble,
    PARTIAL_DFT,
    GENERIC_ORTHO,
    GAUSSIAN,
    RAND_HADAMARD,
)
from .solver import (  # noqa: F401
    SolverConfig,
    SolverReport,
    solve,
    nuclear_norm,
    extract_rank1,
    align_and_score,
    EQUALITY,
    BALL,
    SUCCESS_TOL,
)
from .certificate import (  # noqa: F401
    CertificateReport,
    golfing_run,
    check_dual_certificate,
)
from .incoherence import (  # noqa: F401
    Partition,
    dft_partition,
    verify_partition,
    mu_max_min,
    mu_h,
    IncoherenceReport,
    incoherence_report,
)
from .harness import (  # noqa: F401
    ExperimentGrid,
    run_experiment,
    phase_lr_grid,
    phase_kn_grid,
    mu_h_grid,
    noise_grid,
    noise_fit,
)
