"""Golfing-scheme construction of approximate dual certificates.

Optimality of the lifted truth is certified by a vector lambda whose
per-user adjoint images A_i^*(lambda) are simultaneously close to
h_i x_i^* on the tangent space T_i and small on its orthogonal
complement. The golfing scheme builds lambda over a row partition
Gamma_1..Gamma_P: step p measures the current tangent residual

    W_{i,p-1} = h_i x_i^* - P_{T_i}(Y_{i,p-1})

through the rows of block p alone,

    lambda_{p-1} = sum_j A_{j,p}(S_{j,p} W_{j,p-1}),
    Y_{i,p}      = Y_{i,p-1} + A_{i,p}^*(lambda_{p-1}),

where S_{i,p} is the inverse of the block Gram T_{i,p} (so that each
update is conditionally unbiased for W_{i,p-1}). With a partition that
keeps every block nearly isometric, max_i ||W_{i,p}||_F contracts by
a factor 1/2 per step, and after P >= log2(5 r gamma) steps the pair of
certificate conditions (tangent error <= (5 r gamma)^{-1}, complement
spectral norm <= 1/2) holds.

Certificate runs are diagnostics: the solver never consults them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import PARTIAL_DFT, check_finite
from .errors import ConfigError, DimensionError
from .incoherence import (
    Partition,
    TangentSpace,
    default_partition,
    mu_h,
    operator_gamma,
    project_T,
    project_Tperp,
    verify_partition,
)
from .lifting import (
    LiftedBlocks,
    apply_adjoint,
    apply_restricted,
    block_gram,
    restricted_adjoint,
)

BETA = 0.5

# slack for the probabilistic-rate bookkeeping flags: the quantities being
# compared are O(1), so this only forgives float roundoff, never a miss
_RATE_GRACE = 1e-12


@dataclass
class CertificateReport:
    """Traces and final state of one golfing run.

    w_norms[p, i] is ||W_{i,p}||_F for p = 0..P (row 0 is the unit-
    normalized truth, so it is 1 for every user). mu_seq[p] is the
    coherence mu_p of W_{i,p} against the rows of block p+1, measured
    just before that block is consumed. The check fields (alpha, beta,
    gamma, margins, pass flags) stay None until check_dual_certificate
    fills them.
    """

    L: int
    r: int
    P: int
    Q: int
    w_norms: np.ndarray
    mu_seq: np.ndarray
    mu_halving: tuple
    mu_h: float
    lam: np.ndarray = field(repr=False)
    Y: LiftedBlocks = field(repr=False)
    tangent_errors: np.ndarray
    perp_norms: np.ndarray
    w_rate_pass: bool
    partition_status: str
    gamma: float = None
    alpha: float = None
    beta: float = None
    cond1_margins: np.ndarray = None
    cond2_margins: np.ndarray = None
    cond1_pass: bool = None
    cond2_pass: bool = None
    gate: float = None
    gate_pass: bool = None

    CSV_FIELDS = (
        "trial", "p", "i", "w_fro", "mu_p", "tangent_err", "perp_norm",
        "alpha", "beta", "gamma", "cond1_pass", "cond2_pass", "gate",
        "partition_status",
    )

    @property
    def passed(self):
        if self.cond1_pass is None or self.cond2_pass is None:
            return None
        return bool(self.cond1_pass and self.cond2_pass and self.gate_pass)

    def csv_rows(self, trial=0):
        """One row per (trial, p, i); final-state columns fill at p = P."""
        rows = []
        for p in range(self.P + 1):
            for i in range(self.r):
                final = p == self.P
                rows.append([
                    str(trial), str(p), str(i),
                    repr(float(self.w_norms[p, i])),
                    repr(float(self.mu_seq[p])) if p < self.P else "",
                    repr(float(self.tangent_errors[i])) if final else "",
                    repr(float(self.perp_norms[i])) if final else "",
                    repr(self.alpha) if final and self.alpha is not None else "",
                    repr(self.beta) if final and self.beta is not None else "",
                    repr(self.gamma) if final and self.gamma is not None else "",
                    str(int(self.cond1_pass)) if final and self.cond1_pass is not None else "",
                    str(int(self.cond2_pass)) if final and self.cond2_pass is not None else "",
                    repr(self.gate) if final and self.gate is not None else "",
                    self.partition_status,
                ])
        return rows


def _strided(partition):
    return all(
        np.array_equal(partition.blocks[p], np.arange(p, partition.L, partition.P))
        for p in range(partition.P)
    )


def _measurement_step(ens, partition, q, W_list, SW_list):
    lam_q = np.zeros(partition.Q, dtype=complex)
    for j in range(ens.r):
        lam_q += apply_restricted(ens, j, q, partition, SW_list[j])
    return lam_q, [
        restricted_adjoint(ens, i, q, partition, lam_q) for i in range(ens.r)
    ]


def golfing_run(ens, partition=None, P=None, identity_s="auto"):
    """Run P golfing steps over the partition blocks, in order, no reuse.

    Parameters
    ----------
    ens : Ensemble with truth present.
    partition : row partition; defaults to the strided one with Q >= max K_i.
    P : number of steps (<= partition.P); defaults to all blocks.
    identity_s : True to apply S_{i,p} = (L/Q) I in closed form, False to
        solve against the block Gram, "auto" to use the closed form exactly
        when the partial-DFT/strided structure guarantees it.
    """
    if ens.truth is None:
        raise ConfigError("golfing needs ground truth on the ensemble")
    check_finite(B=ens.B, A=ens.A, truth=[v for pair in ens.truth for v in pair])
    if partition is None:
        partition = default_partition(ens.L, max((k for k, _ in ens.dims), default=1))
    if not isinstance(partition, Partition):
        raise ConfigError("partition must be a Partition")
    if partition.L != ens.L:
        raise DimensionError(f"partition is over L={partition.L}, ensemble has L={ens.L}")
    if P is None:
        P = partition.P
    if not (0 <= P <= partition.P):
        raise DimensionError(
            f"P={P} golfing steps exceed the {partition.P} partition blocks"
        )

    if identity_s == "auto":
        identity_s = ens.b_kind == PARTIAL_DFT and _strided(partition)
        if identity_s:
            # trust but verify: the closed form is only used when the block
            # Gram really is (Q/L) I
            T0 = ens.B[0][partition.block(0)]
            T0 = T0.conj().T @ T0
            scale = partition.Q / ens.L
            if np.abs(T0 - scale * np.eye(T0.shape[0])).max() > 1e-12 * scale:
                identity_s = False

    spaces = [TangentSpace.from_truth(ens, i) for i in range(ens.r)]
    # unit-normalized truth: the per-user scale is absorbed, W_{i,0} = h x^*
    W = [np.outer(ts.h, np.conj(ts.x)) for ts in spaces]
    Y = [np.zeros(d, dtype=complex) for d in ens.dims]
    lam = np.zeros(ens.L, dtype=complex)

    if identity_s:
        c = ens.L / partition.Q

        def s_apply(i, q, M):
            return c * M
    else:
        grams = {}

        def s_apply(i, q, M):
            if (i, q) not in grams:
                grams[(i, q)] = block_gram(ens, i, q, partition)
            return grams[(i, q)].solve(M)

    w_norms = np.empty((P + 1, ens.r))
    w_norms[0] = [float(np.linalg.norm(Wi)) for Wi in W]
    mu_seq = np.empty(P)

    for q in range(P):
        idx = partition.block(q)
        # mu_q: coherence of the current residuals against this block's rows
        worst = 0.0
        b_cols = {}
        for i in range(ens.r):
            b_cols[i] = s_apply(i, q, ens.B[i][idx].conj().T)
            wv = W[i].conj().T @ b_cols[i]
            worst = max(worst, float(np.sqrt((np.abs(wv) ** 2).sum(axis=0)).max()))
        mu_seq[q] = (partition.Q / math.sqrt(ens.L)) * worst

        SW = [s_apply(i, q, W[i]) for i in range(ens.r)]
        lam[idx], updates = _measurement_step(ens, partition, q, W, SW)
        for i in range(ens.r):
            Y[i] = Y[i] + updates[i]
            W[i] = W[i] - project_T(spaces[i], updates[i])
        w_norms[q + 1] = [float(np.linalg.norm(Wi)) for Wi in W]

    mu_h_val = math.sqrt(mu_h(ens, partition))
    _check_mu0(mu_seq, mu_h_val)
    halving = tuple(
        bool(mu_seq[q] <= 0.5 * mu_seq[q - 1] + _RATE_GRACE) for q in range(1, P)
    )

    # recomputed from lambda, this reproduces the tracked W
    tangent, perp = _final_state(ens, spaces, lam)
    rate_ok = all(
        w_norms[p, i] <= 2.0 ** (-p) + _RATE_GRACE
        for p in range(P + 1)
        for i in range(ens.r)
    )
    dev, ok = verify_partition(ens, partition)
    return CertificateReport(
        L=ens.L, r=ens.r, P=P, Q=partition.Q,
        w_norms=w_norms, mu_seq=mu_seq, mu_halving=halving, mu_h=mu_h_val,
        lam=lam, Y=LiftedBlocks(Y), tangent_errors=tangent, perp_norms=perp,
        w_rate_pass=bool(rate_ok),
        partition_status="verified" if ok else "unverified-partition",
    )


def _final_state(ens, spaces, lam):
    """Per-user tangent error ||h x^* - P_T(A_i^* lam)||_F and perp norm ||P_T^perp(.)||."""
    tangent = np.empty(ens.r)
    perp = np.empty(ens.r)
    for i, ts in enumerate(spaces):
        Ai_lam = apply_adjoint(ens, i, lam)
        tangent[i] = float(
            np.linalg.norm(np.outer(ts.h, np.conj(ts.x)) - project_T(ts, Ai_lam))
        )
        perp[i] = float(np.linalg.norm(project_Tperp(ts, Ai_lam), 2))
    return tangent, perp


def _check_mu0(mu_seq, mu_h_val):
    """mu_0 <= mu_h: both scan unit h through the same S_{i,p} and rows."""
    if len(mu_seq) and mu_seq[0] > mu_h_val * (1.0 + 1e-9):
        raise ConfigError(
            f"mu_0 = {mu_seq[0]:.6g} exceeds mu_h = {mu_h_val:.6g}: the run's "
            "S_{i,p} do not match the partition's block Grams"
        )


def check_dual_certificate(ens, report, gamma=None):
    """Evaluate the certificate conditions on a finished golfing run.

    Fills the report's alpha/beta/gamma, per-user margins, pass flags and
    the gate value (1 - beta) - 2 r gamma alpha, then returns the report.
    The two condition values are recomputed from lambda, so a hand-built
    report (e.g. lambda = 0) is checked faithfully.
    """
    if gamma is None:
        gamma = operator_gamma(ens)
    if gamma <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma!r}")
    alpha = 1.0 / (5.0 * ens.r * gamma)
    spaces = [TangentSpace.from_truth(ens, i) for i in range(ens.r)]
    tangent, perp = _final_state(ens, spaces, np.asarray(report.lam, dtype=complex))
    report.gamma = float(gamma)
    report.alpha = float(alpha)
    report.beta = BETA
    report.tangent_errors = tangent
    report.perp_norms = perp
    report.cond1_margins = alpha - tangent
    report.cond2_margins = BETA - perp
    report.cond1_pass = bool(np.all(report.cond1_margins >= 0))
    report.cond2_pass = bool(np.all(report.cond2_margins >= 0))
    report.gate = float((1.0 - BETA) - 2.0 * ens.r * gamma * alpha)
    report.gate_pass = bool(report.gate > 0)
    return report


def mu_p_sequence(report):
    """The mu_p trace with per-step halving flags (mu_p <= mu_{p-1}/2)."""
    mu = [float(v) for v in report.mu_seq]
    _check_mu0(mu, report.mu_h)
    return mu, list(report.mu_halving)
