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

Each is computed exactly, at every size.  The two tangent norms vanish
off T_i, so they are read on its orthonormal basis V_i = {h e_n^*} +
{q_k x^*} (the q_k spanning h^perp), of dimension K_i + N_i - 1.  With
the L x (K_i + N_i - 1) image E_i = A_i(V_i) = [diag(B_i h) A_i,
diag(A_i conj(x)) B_i Q_perp], local isometry is max |eig(E_i^* E_i) - 1|
and mutual incoherence max ||E_j^* E_k||.  gamma acts on all of
C^{K_i x N_i}: it is the square root of the top eigenvalue of A_i^* A_i,
by Lanczos from a fixed start (lifting.top_eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import check_finite
from .errors import ConfigError, DimensionError
from .lifting import (apply_adjoint, apply_op, apply_restricted, block_gram, restricted_adjoint,
                      rows_gram, top_eigenvalue)

# Relative tolerance of the Lanczos run for gamma^2.
_LANCZOS_TOL = 1e-10


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
    if P < 1 or L % P != 0:
        raise DimensionError(f"P={P} must be a positive divisor of L={L}")
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
# Tangent images and operator norms


def _tangent_basis(ts):
    """The orthonormal basis {h e_n^*} + {q_k x^*} of T as an m x K x N
    stack, m = N + K - 1, with the q_k an orthonormal basis of h^perp (the
    trailing columns of the SVD of h)."""
    (K,), (N,) = ts.h.shape, ts.x.shape
    q = np.linalg.svd(ts.h[:, None])[0][:, 1:]
    V = np.empty((N + K - 1, K, N), dtype=complex)
    V[:N] = ts.h[None, :, None] * np.eye(N)[:, None, :]
    V[N:] = q.T[:, :, None] * ts.x.conj()
    return V


def _tangent_image(ens, i, ts):
    """E = A_i(V), the L x m image of T's basis: [diag(B_i h) A_i,
    diag(A_i conj(x)) B_i Q_perp], one kernel product per basis matrix."""
    return np.stack([apply_op(ens, i, Z) for Z in _tangent_basis(ts)], axis=1)


def _local_iso(E):
    """||E^* E - I||, the local-isometry norm on the tangent coordinates."""
    return float(np.abs(np.linalg.eigvalsh(E.conj().T @ E) - 1.0).max())


def _mutual(images):
    """max over j < k of ||E_j^* E_k||, 0 with fewer than two users."""
    return max((float(np.linalg.svd(Ej.conj().T @ Ek, compute_uv=False)[0])
                for j, Ej in enumerate(images) for Ek in images[j + 1:]), default=0.0)


def _check_inputs(ens, spaces=()):
    check_finite(B=ens.B, A=ens.A, tangent=[v for ts in spaces for v in (ts.h, ts.x)])


def local_isometry_norm(ens, i, ts=None, p=None, partition=None):
    """||P_T A_i^* A_i P_T - P_T||, or the S-weighted block version.

    With (p, partition) given, measures the deviation of
    P_T A_{i,p}^* A_{i,p} (S_{i,p} P_T .) from P_T — the per-block
    isometry that drives the certificate recursion.  Both vanish on
    T^perp, so they are read exactly on T's basis V: ||E^* E - I|| for
    E = A_i(V), and ||V^* A_{i,p}^* A_{i,p}(S_{i,p} V) - I|| for the block.
    """
    if ts is None:
        ts = TangentSpace.from_truth(ens, i)
    _check_inputs(ens, [ts])
    if (p is None) != (partition is None):
        raise ConfigError("give both p and partition, or neither")
    if p is None:
        return _local_iso(_tangent_image(ens, i, ts))
    gram = block_gram(ens, i, p, partition)
    V = _tangent_basis(ts)
    cols = [restricted_adjoint(ens, i, p, partition,
                               apply_restricted(ens, i, p, partition, gram.solve(Z)))
            for Z in V]
    m = len(V)
    M = V.reshape(m, -1).conj() @ np.reshape(cols, (m, -1)).T
    return float(np.linalg.svd(M - np.eye(m), compute_uv=False)[0])


def mutual_incoherence(ens, spaces=None):
    """max over user pairs j != k of ||P_{T_j} A_j^* A_k P_{T_k}|| (0 when r=1),
    read as ||E_j^* E_k|| from the tangent images."""
    if spaces is None:
        spaces = truth_spaces(ens) if ens.r > 1 else []
    _check_inputs(ens, spaces)
    return _mutual([_tangent_image(ens, i, ts) for i, ts in enumerate(spaces)])


def operator_gamma(ens):
    """gamma = max_i ||A_i||: the square root of the top eigenvalue of
    A_i^* A_i, by Lanczos through apply_op and apply_adjoint."""
    _check_inputs(ens)
    best = 0.0
    for i, dims in enumerate(ens.dims):

        def gram(v, i=i, dims=dims):
            return apply_adjoint(ens, i, apply_op(ens, i, v.reshape(dims))).reshape(-1)

        lam = top_eigenvalue(gram, dims[0] * dims[1], _LANCZOS_TOL)
        best = max(best, math.sqrt(max(lam, 0.0)))
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
    images = [_tangent_image(ens, i, ts) for i, ts in enumerate(spaces)]
    local = tuple(_local_iso(E) for E in images)
    mut = _mutual(images)
    gam = operator_gamma(ens)
    return IncoherenceReport(
        L=ens.L, r=ens.r, P=partition.P, Q=partition.Q,
        mu_max_sq=mu_max_sq, mu_min_sq=mu_min_sq, mu_h_sq=mu_h_sq,
        iso_deviation=dev, iso_pass=ok, partition_status=status,
        local_iso=local, mutual_mu=mut, gamma=gam,
    )
