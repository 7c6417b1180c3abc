"""Nuclear-norm minimization for the lifted demixing problem.

The convex program

    minimize    sum_i ||X_i||_*
    subject to  sum_i A_i(X_i) = y                  (equality mode)
    or          ||sum_i A_i(X_i) - y||_2 <= eta     (ball mode)

is solved by one over-relaxed ADMM loop: the nuclear term is handled per
block by singular-value thresholding, the measurement constraint by the
exact projection onto its set (`lifting.projector`, the affine set at
eta = 0 and the noise ball above it), and a scaled dual variable ties
the two halves together.  The penalty rho is chosen once per solve from
the scaled radius eta/||y|| (see `solve`) and never changes, so every
solve is a Krasnosel'skii-Mann fixed-point iteration and its recorded
stationarity merit (the fixed-point residual ||z - v||) is
non-increasing.

When the ground truth is real -- the standard signal model here -- the
minimization is carried out over real lifted matrices by stacking the
real and imaginary parts of the constraint rows.  That restriction halves
the unknowns, which moves the empirical recovery boundary down to roughly
L ~ 1.5 r (K + N) and matches the phase transitions this package is
calibrated against; the general complex program needs visibly more
measurements.  `SolverConfig.variables` controls the choice ("auto" picks
real exactly when the ensemble's truth is real).

Everything here is deterministic: no randomness enters the iteration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import check_eta, check_finite
from .errors import ConfigError, DimensionError
from .lifting import LiftedBlocks, MeasurementMap, projector, unpack

EQUALITY = "equality"
BALL = "ball"
MODES = (EQUALITY, BALL)

VARIABLES = ("auto", "real", "complex")

# Global relative error below this counts a trial as an exact recovery.
SUCCESS_TOL = 1e-3

# Over-relaxation factor of the ADMM step (Boyd et al. 2011, section 3.4.3).
_RELAXATION = 1.6

# The penalty: rho = min(_RHO_GAIN * (eta/||y||)**_RHO_POWER, _RHO_MAX) in
# ball mode, and rho = 1 at eta = 0 (equality mode, or a ball of radius 0).
# Iterations summed over 30 noise-sweep draws (gaussian-r3, sigma = 1, 0.5,
# 0.05 and 0.005; 120 ball solves, one BLAS thread): gain 3.5 / 7 / 14 at
# power -0.6 took 12639 / 9125 / 13126; powers -0.5 / -0.7 / -1 at gain 7
# took 10158 / 9613 / 30109.  Under this rule all 120 converged with
# err/eta <= 10.
_RHO_GAIN = 7.0
_RHO_POWER = -0.6
# The cap binds below eta/||y|| ~ 8e-5: a sigma = 1e-6 solve (gaussian-r3,
# seed 2026) took 3738 iterations with it and 11725 without it.
_RHO_MAX = 2000.0


def nuclear_norm(M):
    """Sum of singular values of a dense matrix."""
    return float(np.linalg.svd(np.asarray(M), compute_uv=False).sum())


def extract_rank1(X):
    """Leading rank-one factors of X.

    Returns (h, x, sigma1, gap) with h x^* equal to the best rank-one
    approximation of X, split symmetrically (both factors carry
    sqrt(sigma1)).  The free global phase is fixed so that the
    largest-magnitude entry of h is real and positive; gap = sigma2/sigma1
    is reported as a rank-one-ness diagnostic.  A zero matrix yields zero
    factors with sigma1 = gap = 0.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise DimensionError("extract_rank1 expects a matrix, got shape %r" % (X.shape,))
    K, N = X.shape
    if not np.any(X):
        return np.zeros(K, dtype=complex), np.zeros(N, dtype=complex), 0.0, 0.0
    U, sig, Vh = np.linalg.svd(X, full_matrices=False)
    s1 = float(sig[0])
    gap = float(sig[1] / sig[0]) if sig.size > 1 and s1 > 0 else 0.0
    u1 = U[:, 0].astype(complex)
    v1 = np.conj(Vh[0]).astype(complex)
    j = int(np.argmax(np.abs(u1)))
    phase = u1[j] / abs(u1[j])
    root = math.sqrt(s1)
    return root * u1 / phase, root * v1 / phase, s1, gap


def align_and_score(truth, estimates):
    """Score lifted estimates against factor truth modulo per-user scaling.

    truth is a list of (h_i, x_i) pairs; estimates is a LiftedBlocks (or a
    plain list of K_i x N_i matrices).  Returns (per_user, rel_error):
    per_user holds one (h_err, x_err, c) triple per user, where
    c = <hhat, h>/||hhat||^2 minimizes ||h - c*hhat|| over scalars and the
    errors are the aligned residual norms ||h - c*hhat|| and
    ||x - xhat/conj(c)||; rel_error is the lifted-matrix metric
    sqrt(sum_i ||Xhat_i - X_i||_F^2) / sqrt(sum_i ||X_i||_F^2).

    A zero (or rank-zero) estimate skips alignment and reports the truth
    norms as errors with c = 0.
    """
    blocks = list(estimates)
    if len(blocks) != len(truth):
        raise DimensionError(
            "truth has %d users but estimates has %d" % (len(truth), len(blocks))
        )
    num_sq = 0.0
    den_sq = 0.0
    per_user = []
    for (h, x), Xhat in zip(truth, blocks):
        h = np.asarray(h)
        x = np.asarray(x)
        Xhat = np.asarray(Xhat)
        if Xhat.shape != (h.size, x.size):
            raise DimensionError(
                "estimate shape %r does not match truth dims (%d, %d)"
                % (Xhat.shape, h.size, x.size)
            )
        X = np.outer(h, np.conj(x))
        num_sq += float(np.linalg.norm(Xhat - X) ** 2)
        den_sq += float(np.linalg.norm(X) ** 2)
        hhat, xhat, s1, _gap = extract_rank1(Xhat)
        c = 0.0 + 0.0j
        if s1 > 0:
            c = complex(np.vdot(hhat, h) / np.vdot(hhat, hhat))
        if c == 0:
            per_user.append((float(np.linalg.norm(h)), float(np.linalg.norm(x)), 0j))
        else:
            h_err = float(np.linalg.norm(h - c * hhat))
            x_err = float(np.linalg.norm(x - xhat / np.conj(c)))
            per_user.append((h_err, x_err, c))
    if den_sq > 0:
        rel_error = math.sqrt(num_sq) / math.sqrt(den_sq)
    else:
        rel_error = 0.0 if num_sq == 0 else math.inf
    return per_user, rel_error


@dataclass(frozen=True)
class SolverConfig:
    """Settings for `solve`.

    mode is "equality" or "ball"; eta is the ball radius (ignored in
    equality mode).  tol is the relative stopping tolerance of both the
    primal and the dual residual.  variables selects the search space:
    "real" restricts the lifted matrices to real entries, "complex"
    solves the general program, and "auto" picks real exactly when the
    ensemble's truth is real.  The ADMM penalty is not a setting: `solve`
    derives it from eta/||y||.
    """

    mode: str = EQUALITY
    eta: float = 0.0
    max_iters: int = 20000
    tol: float = 1e-7
    variables: str = "auto"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError("mode must be one of %r, got %r" % (MODES, self.mode))
        if self.variables not in VARIABLES:
            raise ConfigError(
                "variables must be one of %r, got %r" % (VARIABLES, self.variables)
            )
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        check_eta(self.eta)


@dataclass
class SolverReport:
    """Everything `solve` knows at exit.

    estimates holds the lifted blocks Xhat_i in original units; factors is
    a list of (hhat_i, xhat_i, c_i) with c_i the truth-alignment scalar
    (None when the ensemble carries no truth); gaps are the per-block
    sigma2/sigma1 diagnostics.  per_user_errors are relative aligned
    factor errors (h, x) per user; rel_error is the global lifted metric
    and success is rel_error < 1e-3.  merit_history / objective_history
    trace the iteration (original units).  path names the side and the
    factorization of the constraint projection, as lifting.projector
    returns it (e.g. "col/chol", "row/eigh" or "row/lsqr"), "none" when
    no solve ran.  It is not a CSV field.
    """

    mode: str
    variables: str
    converged: bool
    iterations: int
    primal_residual: float
    dual_residual: float
    feasibility: float
    objective: float
    estimates: LiftedBlocks
    factors: list
    gaps: list
    per_user_errors: list | None
    rel_error: float | None
    success: bool | None
    eta: float
    rho_final: float
    merit_history: np.ndarray = field(repr=False)
    objective_history: np.ndarray = field(repr=False)
    path: str

    CSV_FIELDS = (
        "mode",
        "variables",
        "converged",
        "iterations",
        "primal_residual",
        "dual_residual",
        "feasibility",
        "objective",
        "rel_error",
        "success",
        "eta",
        "rho_final",
        "gaps",
    )

    def csv_row(self):
        """One CSV row (strings), aligned with CSV_FIELDS: repr of each
        value, None empty, the gaps joined by ";"."""
        vals = (getattr(self, name) for name in self.CSV_FIELDS)
        return tuple("" if v is None else v if isinstance(v, str) else
                     ";".join(map(repr, v)) if isinstance(v, list) else repr(v) for v in vals)

    def write_trace(self, path):
        """Write the per-iteration merit/objective trace as CSV."""
        with open(path, "w") as fh:
            fh.write("iter,merit,objective\n")
            for k, (m, o) in enumerate(zip(self.merit_history, self.objective_history)):
                fh.write("%d,%r,%r\n" % (k + 1, m, o))


def _offsets(dims):
    out = []
    lo = 0
    for K, N in dims:
        out.append((lo, lo + K * N, K, N))
        lo += K * N
    return out


def _blocks_svt(vec, offsets, tau):
    """Per-block SVT on a packed vector; returns (result, objective)."""
    out = np.empty_like(vec)
    obj = 0.0
    for lo, hi, K, N in offsets:
        U, sig, Vh = np.linalg.svd(vec[lo:hi].reshape(K, N), full_matrices=False)
        sig = np.maximum(sig - tau, 0.0)
        out[lo:hi] = ((U * sig) @ Vh).reshape(-1)
        obj += float(sig.sum())
    return out, obj


def _resolve_variables(ens, cfg):
    """Apply the "auto" rule: real variables iff the truth is real."""
    if cfg.variables != "auto":
        return cfg.variables
    if ens.truth is None:
        return "complex"
    for h, x in ens.truth:
        if np.any(np.asarray(h).imag != 0) or np.any(np.asarray(x).imag != 0):
            return "complex"
    return "real"


def _report(ens, cfg, variables, z_scaled, scale, converged, iterations, r_pri,
            s_dual, feas, rho, merit_hist, obj_hist, path="none"):
    """Unscale, factor, align, and assemble the SolverReport."""
    dims = tuple(ens.dims)
    estimates = unpack((z_scaled * scale).astype(complex), dims)
    objective = sum(nuclear_norm(Xi) for Xi in estimates)
    raw = [extract_rank1(Xi) for Xi in estimates]
    gaps = [g for _h, _x, _s, g in raw]
    if ens.truth is not None:
        per_user_abs, rel_error = align_and_score(ens.truth, estimates)
        factors = [
            (h, x, c) for (h, x, _s, _g), (_he, _xe, c) in zip(raw, per_user_abs)
        ]
        per_user_errors = []
        for (h_err, x_err, _c), (ht, xt) in zip(per_user_abs, ens.truth):
            hn = float(np.linalg.norm(ht))
            xn = float(np.linalg.norm(xt))
            per_user_errors.append(
                (h_err / hn if hn > 0 else h_err, x_err / xn if xn > 0 else x_err)
            )
        success = bool(rel_error < SUCCESS_TOL)
    else:
        factors = [(h, x, None) for h, x, _s, _g in raw]
        per_user_errors = None
        rel_error = None
        success = None
    return SolverReport(
        mode=cfg.mode,
        variables=variables,
        converged=converged,
        iterations=iterations,
        primal_residual=float(r_pri),
        dual_residual=float(s_dual),
        feasibility=float(feas),
        objective=float(objective),
        estimates=estimates,
        factors=factors,
        gaps=gaps,
        per_user_errors=per_user_errors,
        rel_error=rel_error,
        success=success,
        eta=cfg.eta,
        rho_final=float(rho),
        merit_history=np.asarray(merit_hist, dtype=float) * scale,
        objective_history=np.asarray(obj_hist, dtype=float) * scale,
        path=path,
    )


def solve(ens, config=None):
    """Minimize sum_i ||X_i||_* under the measurement constraint on ens.y.

    Equality mode enforces sum_i A_i(X_i) = y exactly; ball mode relaxes it
    to ||sum_i A_i(X_i) - y|| <= config.eta.  The problem is scaled by
    ||y|| internally, solved by over-relaxed ADMM, and the report is
    returned in original units.  The penalty is fixed for the whole solve:
    rho = 1 at eta = 0, else rho = min(7 (eta/||y||)**-0.6, 2000), and the
    report's rho_final gives it.  Deterministic for a fixed (ens, config).
    ConfigError: a NaN or infinity in y, B_i or A_i, or a y farther from
    the range of the map than the constraint allows (the message gives
    that least-squares residual relative to ||y||).
    """
    cfg = config if config is not None else SolverConfig()
    dims = tuple(ens.dims)
    y = np.asarray(ens.y, dtype=complex)
    if y.shape != (ens.L,):
        raise DimensionError("observation must have length L=%d" % ens.L)
    check_finite(y=[y], B=ens.B, A=ens.A)
    ynorm = float(np.linalg.norm(y))
    variables = _resolve_variables(ens, cfg)
    eta = cfg.eta if cfg.mode == BALL else 0.0

    if eta > ynorm:
        raise ConfigError(
            "ball radius eta=%r exceeds ||y||=%r; the zero solution is "
            "trivially optimal and the program is degenerate" % (eta, ynorm)
        )
    rho = min(_RHO_GAIN * (eta / ynorm) ** _RHO_POWER, _RHO_MAX) if eta > 0 else 1.0
    if len(dims) == 0:
        if ynorm > 0:
            raise ConfigError("ensemble has no users but a nonzero observation")
        return _report(ens, cfg, variables, np.zeros(0, dtype=complex), 1.0,
                       True, 0, 0.0, 0.0, 0.0, rho, [], [])
    if ynorm == 0.0 or eta == ynorm:
        # Zero blocks are feasible with objective 0, hence optimal.
        z0 = np.zeros(ens.sum_kn, dtype=complex)
        return _report(ens, cfg, variables, z0, 1.0, True, 0, 0.0, 0.0,
                       ynorm, rho, [], [])

    scale = ynorm
    ys = y / scale
    mmap = MeasurementMap(ens, real=variables == "real")
    ys_vec = np.concatenate([ys.real, ys.imag]) if mmap.real else ys
    offsets = _offsets(dims)
    D = ens.sum_kn
    merit_hist = np.empty(cfg.max_iters)
    obj_hist = np.empty(cfg.max_iters)
    converged = False
    iterations = cfg.max_iters

    project, path = projector(mmap, ys_vec, eta / scale)
    v = np.zeros(D, dtype=mmap.dtype)
    u = np.zeros(D, dtype=mmap.dtype)
    for k in range(cfg.max_iters):
        z = project(v - u)
        merit_hist[k] = np.linalg.norm(z - v)
        zhat = _RELAXATION * z + (1.0 - _RELAXATION) * v
        v_new, obj = _blocks_svt(zhat + u, offsets, 1.0 / rho)
        u += zhat - v_new
        obj_hist[k] = obj
        r_pri = float(np.linalg.norm(z - v_new))
        s_dual = float(rho * np.linalg.norm(v_new - v))
        eps_pri = cfg.tol * (
            1.0 + max(float(np.linalg.norm(z)), float(np.linalg.norm(v_new)))
        )
        eps_dual = cfg.tol * (1.0 + rho * float(np.linalg.norm(u)))
        v = v_new
        if r_pri <= eps_pri and s_dual <= eps_dual:
            converged = True
            iterations = k + 1
            break
    feas = float(np.linalg.norm(mmap.mv(z) - ys_vec))

    return _report(
        ens, cfg, variables, z, scale, converged, iterations, r_pri, s_dual,
        feas * scale, rho, merit_hist[:iterations], obj_hist[:iterations], path,
    )
