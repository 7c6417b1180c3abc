"""Incoherence quantities, partitions, and tangent-space diagnostics.

The recovery theory is phrased in terms of a handful of scalars
attached to an instance:

* mu^2_max / mu^2_min — extreme values of (L/K_i)||b_{i,l}||^2 over all
  users and rows; both equal 1 for the partial DFT.
* A partition of the row set {1..L} into P blocks of size Q, with the
  isometry condition ||T_{i,p} - (Q/L) I|| <= Q/(4L) on every block
  Gram. The strided partition makes T_{i,p} = (Q/L) I exactly for
  partial-DFT B.
* mu^2_h — coherence of a concrete h against the rows, the larger of a
  partition-weighted branch (Q^2/L) max |<S_{i,p} h_i, b_{i,l}>|^2 and
  the plain branch L max |<h_i, b_{i,l}>|^2 (both normalized by
  ||h_i||^2).
* Tangent spaces T_i of the rank-one manifold at h_i x_i^*, with the
  local-isometry norm ||P_T A^* A P_T - P_T||, the mutual incoherence
  max_{j != k} ||P_{T_j} A_j^* A_k P_{T_k}||, and the operator bound
  gamma = max_i ||A_i||.

Operator norms run through a dense matrixization when the block is
small (K*N <= 64) and power iteration on M^*M otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import TAG_DIAG, check_finite, substream
from .errors import ConfigError, ConvergenceError, DimensionError
from .lifting import (apply_adjoint, apply_op, apply_restricted, block_gram, restricted_adjoint,
                      rows_gram)

_DENSE_LIMIT = 64
_POWER_CAP = 5000
_POWER_TOL = 1e-4


# ----------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Partition:
    """P disjoint blocks of Q row indices (0-based) covering {0..L-1}."""

    L: int
    P: int
    Q: int
    blocks: tuple

    def __post_init__(self):
        if self.P * self.Q != self.L or self.P < 1:
            raise DimensionError(f"need L = P*Q, got L={self.L}, P={self.P}, Q={self.Q}")
        if len(self.blocks) != self.P:
            raise DimensionError(f"{len(self.blocks)} blocks for P={self.P}")
        seen = np.concatenate([np.asarray(b) for b in self.blocks]) if self.blocks else np.array([], int)
        for b in self.blocks:
            if len(b) != self.Q:
                raise DimensionError(f"block size {len(b)} != Q={self.Q}")
        if len(seen) != self.L or len(np.unique(seen)) != self.L or seen.min() < 0 or seen.max() >= self.L:
            raise DimensionError("blocks must disjointly cover the row set")

    def block(self, p):
        if not (0 <= p < self.P):
            raise IndexError(f"block index {p} out of range for P={self.P}")
        return self.blocks[p]

    def labels(self, p):
        """1-based row labels of block p (presentation only)."""
        return self.block(p) + 1


def dft_partition(L, P):
    """Strided partition: 1-based Gamma_p = {p, P+p, ..., (Q-1)P+p}.

    For partial-DFT B this makes every block Gram exactly (Q/L) I.
    """
    if L % P != 0:
        raise DimensionError(f"P={P} does not divide L={L}")
    blocks = tuple(np.arange(p, L, P) for p in range(P))
    return Partition(L=L, P=P, Q=L // P, blocks=blocks)


def default_partition(L, max_k):
    """Strided partition with the largest P dividing L such that Q >= max_k."""
    for P in range(L, 0, -1):
        if L % P == 0 and L // P >= max_k:
            return dft_partition(L, P)
    raise DimensionError(f"no block size Q >= {max_k} possible for L={L}")


def verify_partition(ens, partition):
    """(iso_deviation, passed): max_p,i ||T_{i,p} - (Q/L) I||_2 vs Q/(4L).

    The block Grams come from rows_gram, which needs no invertibility.
    """
    scale = partition.Q / ens.L
    dev = 0.0
    for p in range(partition.P):
        for i in range(ens.r):
            T = rows_gram(ens, i, partition.block(p))
            w = np.linalg.eigvalsh(T - scale * np.eye(T.shape[0]))
            dev = max(dev, float(np.abs(w).max()))
    return dev, dev <= partition.Q / (4 * ens.L)


# ----------------------------------------------------------------------
# Row-coherence scalars


def mu_max_min(ens):
    """Extremes of (L/K_i) ||b_{i,l}||^2 over all users i and rows l."""
    mu_max = -np.inf
    mu_min = np.inf
    for (K, _), B in zip(ens.dims, ens.B):
        vals = (ens.L / K) * (np.abs(B) ** 2).sum(axis=1)
        mu_max = max(mu_max, float(vals.max()))
        mu_min = min(mu_min, float(vals.min()))
    return mu_max, mu_min


def mu_h(ens, partition=None, h_list=None, return_branches=False):
    """Coherence mu^2_h of the impulse responses against the rows of B.

    The partition branch applies S_{i,p} = T_{i,p}^{-1} to h_i and scans
    the block rows; the plain branch scans all rows with h_i directly.
    Both are normalized by ||h_i||^2 and the max is returned.
    """
    if h_list is None:
        if ens.truth is None:
            raise ConfigError("mu_h needs h vectors (no truth present)")
        h_list = [h for h, _ in ens.truth]
    if partition is None:
        partition = default_partition(ens.L, max(k for k, _ in ens.dims))
    branch_part = 0.0
    branch_plain = 0.0
    for i, h in enumerate(h_list):
        h = np.asarray(h)
        hsq = float(np.vdot(h, h).real)
        if hsq == 0:
            raise ConfigError(f"h for user {i} is zero")
        B = ens.B[i]
        branch_plain = max(branch_plain, ens.L * float(np.abs(B @ h).max() ** 2) / hsq)
        for p in range(partition.P):
            g = block_gram(ens, i, p, partition)
            sh = g.solve(h.astype(complex))
            vals = np.abs(B[partition.block(p)] @ sh) ** 2
            branch_part = max(
                branch_part, (partition.Q**2 / ens.L) * float(vals.max()) / hsq
            )
    out = max(branch_part, branch_plain)
    if return_branches:
        return out, branch_part, branch_plain
    return out


# ----------------------------------------------------------------------
# Tangent spaces


@dataclass(frozen=True)
class TangentSpace:
    """Tangent space of the rank-one manifold at h x^* (unit h, x)."""

    i: int
    h: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for name, v in (("h", self.h), ("x", self.x)):
            if abs(np.linalg.norm(v) - 1.0) > 1e-8:
                raise ConfigError(f"TangentSpace needs unit {name}, got norm {np.linalg.norm(v)}")

    @classmethod
    def from_vectors(cls, i, h, x):
        h = np.asarray(h, dtype=complex)
        x = np.asarray(x, dtype=complex)
        nh, nx = np.linalg.norm(h), np.linalg.norm(x)
        if nh == 0 or nx == 0:
            raise ConfigError("cannot build a tangent space from a zero vector")
        return cls(i=i, h=h / nh, x=x / nx)

    @classmethod
    def from_truth(cls, ens, i):
        if ens.truth is None:
            raise ConfigError("ensemble has no ground truth")
        h, x = ens.truth[i]
        return cls.from_vectors(i, h, x)


def truth_spaces(ens):
    return [TangentSpace.from_truth(ens, i) for i in range(ens.r)]


def project_T(ts, Z):
    """P_T(Z) = h h^* Z + (I - h h^*) Z x x^*."""
    h, x = ts.h, ts.x
    hZ = np.outer(h, h.conj() @ Z)
    M = Z - hZ
    return hZ + np.outer(M @ x, x.conj())


def project_Tperp(ts, Z):
    """P_{T^perp}(Z) = (I - h h^*) Z (I - x x^*)."""
    h, x = ts.h, ts.x
    M = Z - np.outer(h, h.conj() @ Z)
    return M - np.outer(M @ x, x.conj())


# ----------------------------------------------------------------------
# Operator norms (dense matrixization or power iteration on M^* M)


def _operator_norm(dims_in, fwd, adj, rng, tol=_POWER_TOL, cap=_POWER_CAP,
                   dense_limit=_DENSE_LIMIT):
    d_in = int(np.prod(dims_in))
    if d_in <= dense_limit:
        cols = []
        E = np.zeros(dims_in, dtype=complex)
        for j in range(d_in):
            E.reshape(-1)[j] = 1.0
            cols.append(np.asarray(fwd(E)).reshape(-1))
            E.reshape(-1)[j] = 0.0
        M = np.stack(cols, axis=1)
        if M.size == 0:
            return 0.0
        return float(np.linalg.svd(M, compute_uv=False)[0])
    v = rng.standard_normal(d_in) + 1j * rng.standard_normal(d_in)
    v = v.reshape(dims_in)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(cap):
        w = np.asarray(fwd(v))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        u = np.asarray(adj(w))
        nu = np.linalg.norm(u)
        if nu == 0:
            return 0.0
        new = math.sqrt(nu)  # ||M^* M v|| -> sigma^2 for unit v
        v = u / nu
        if abs(new - sigma) <= tol * max(new, 1e-300):
            return new
        sigma = new
    raise ConvergenceError(
        f"operator-norm power iteration did not settle within {cap} iterations"
    )


def _diag_rng(ens, *key):
    return substream(0 if ens.seed is None else ens.seed, TAG_DIAG, *key)


def local_isometry_norm(ens, i, ts=None, p=None, partition=None,
                        tol=_POWER_TOL, cap=_POWER_CAP, dense_limit=_DENSE_LIMIT):
    """||P_T A_i^* A_i P_T - P_T||, or the S-weighted block version.

    With (p, partition) given, measures the deviation of
    P_T A_{i,p}^* A_{i,p} (S_{i,p} P_T .) from P_T — the per-block
    isometry that drives the certificate recursion.
    """
    if ts is None:
        ts = TangentSpace.from_truth(ens, i)
    if (p is None) != (partition is None):
        raise ConfigError("give both p and partition, or neither")
    if p is None:

        def fwd(Z):
            return project_T(ts, apply_adjoint(ens, i, apply_op(ens, i, project_T(ts, Z)))) - project_T(ts, Z)

        adj = fwd  # Hermitian
    else:
        gram = block_gram(ens, i, p, partition)

        def fwd(Z):
            W = gram.solve(project_T(ts, Z))
            W = apply_restricted(ens, i, p, partition, W)
            return project_T(ts, restricted_adjoint(ens, i, p, partition, W)) - project_T(ts, Z)

        def adj(Z):
            W = apply_restricted(ens, i, p, partition, project_T(ts, Z))
            W = restricted_adjoint(ens, i, p, partition, W)
            return project_T(ts, gram.solve(W)) - project_T(ts, Z)

    return _operator_norm(ens.dims[i], fwd, adj, _diag_rng(ens, i, 0 if p is None else p + 1),
                          tol=tol, cap=cap, dense_limit=dense_limit)


def mutual_incoherence(ens, spaces=None, tol=_POWER_TOL, cap=_POWER_CAP,
                       dense_limit=_DENSE_LIMIT):
    """max over user pairs j != k of ||P_{T_j} A_j^* A_k P_{T_k}|| (0 when r=1)."""
    if ens.r <= 1:
        return 0.0
    if spaces is None:
        spaces = truth_spaces(ens)
    best = 0.0
    for j in range(ens.r):
        for k in range(j + 1, ens.r):
            tj, tk = spaces[j], spaces[k]

            def fwd(Z, j=j, k=k, tj=tj, tk=tk):
                return project_T(tj, apply_adjoint(ens, j, apply_op(ens, k, project_T(tk, Z))))

            def adj(W, j=j, k=k, tj=tj, tk=tk):
                return project_T(tk, apply_adjoint(ens, k, apply_op(ens, j, project_T(tj, W))))

            best = max(best, _operator_norm(ens.dims[k], fwd, adj,
                                            _diag_rng(ens, j, k), tol=tol, cap=cap,
                                            dense_limit=dense_limit))
    return best


def operator_gamma(ens, tol=_POWER_TOL, cap=_POWER_CAP, dense_limit=_DENSE_LIMIT):
    """gamma = max_i ||A_i|| (largest singular value of each lifted map)."""
    best = 0.0
    for i in range(ens.r):

        def fwd(Z, i=i):
            return apply_op(ens, i, Z)

        def adj(z, i=i):
            return apply_adjoint(ens, i, z)

        best = max(best, _operator_norm(ens.dims[i], fwd, adj,
                                        _diag_rng(ens, i, 99), tol=tol, cap=cap,
                                        dense_limit=dense_limit))
    return best


# ----------------------------------------------------------------------
# Bundled report


@dataclass
class IncoherenceReport:
    L: int
    r: int
    P: int
    Q: int
    mu_max_sq: float
    mu_min_sq: float
    mu_h_sq: float
    iso_deviation: float
    iso_pass: bool
    partition_status: str
    local_iso: tuple
    mutual_mu: float
    gamma: float

    CSV_FIELDS = (
        "L", "r", "P", "Q", "mu_max_sq", "mu_min_sq", "mu_h_sq",
        "iso_deviation", "iso_pass", "partition_status",
        "local_iso_max", "local_iso", "mutual_mu", "gamma",
    )

    def csv_row(self):
        vals = [
            self.L, self.r, self.P, self.Q,
            repr(self.mu_max_sq), repr(self.mu_min_sq), repr(self.mu_h_sq),
            repr(self.iso_deviation), int(self.iso_pass), self.partition_status,
            repr(max(self.local_iso) if self.local_iso else 0.0),
            ";".join(repr(v) for v in self.local_iso),
            repr(self.mutual_mu), repr(self.gamma),
        ]
        return [str(v) for v in vals]


def incoherence_report(ens, partition=None):
    """Compute every diagnostic scalar for one instance."""
    truth = [v for pair in ens.truth for v in pair] if ens.truth else []
    check_finite(B=ens.B, A=ens.A, truth=truth)
    if partition is None:
        partition = default_partition(ens.L, max((k for k, _ in ens.dims), default=1))
    mu_max_sq, mu_min_sq = mu_max_min(ens) if ens.r else (0.0, 0.0)
    dev, ok = verify_partition(ens, partition)
    status = "verified" if ok else "unverified-partition"
    mu_h_sq = mu_h(ens, partition) if ens.truth and ens.r else 0.0
    spaces = truth_spaces(ens) if ens.truth else []
    local = tuple(
        local_isometry_norm(ens, i, ts=spaces[i]) for i in range(len(spaces))
    )
    mut = mutual_incoherence(ens, spaces) if spaces else 0.0
    gam = operator_gamma(ens) if ens.r else 0.0
    return IncoherenceReport(
        L=ens.L, r=ens.r, P=partition.P, Q=partition.Q,
        mu_max_sq=mu_max_sq, mu_min_sq=mu_min_sq, mu_h_sq=mu_h_sq,
        iso_deviation=dev, iso_pass=ok, partition_status=status,
        local_iso=local, mutual_mu=mut, gamma=gam,
    )
