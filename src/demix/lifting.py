"""Lifted measurement operators and their Gram structure.

User i's lifted operator maps a K_i x N_i matrix Z to the L-vector

    A_i(Z) = { b_{i,l}^* Z a_{i,l} }_{l=1..L},

where b_{i,l} / a_{i,l} are the l-th columns of B_i^* / A_i^*; with rows
written out, A_i(Z)_l = B_i[l] @ Z @ A_i[l]. Its adjoint is
A_i^*(z) = B_i^* diag(z) A_i. The composite map over all users,
Phi, acts on the concatenation of row-major vec(Z_i) and has the L x L
Gram

    Phi Phi^* = sum_i (B_i B_i^*) .* (A_i A_i^T)      (entrywise product),

which is how gram_matrix assembles it without forming Phi.

Restricted versions keep only the rows in one partition block Gamma_p;
their Grams T_{i,p} = sum_{l in Gamma_p} b_{i,l} b_{i,l}^* drive the
certificate construction.

Two evaluation paths exist for the operators: a dense path that follows
the definition with the stored matrices, and a fast path (FFT-based for
partial-DFT B). They agree to near machine precision and the fast path
becomes the default above L = 64.

The solver sees Phi (or its real-stacked form) through one
MeasurementMap, which picks dense or matrix-free application once, and
projects through a GramSolver that factors the smaller of the map's two
Grams, M M^* or M^* M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .ensemble import PARTIAL_DFT, dft_matmul, dft_rmatmul
from .errors import ConfigError, ConvergenceError, DimensionError, SingularGramError

_FAST_PATH_MIN_L = 64
# MeasurementMap assembles the dense composite matrix when L * sum(K_i N_i)
# is at most this; beyond it, it applies the per-user operators.
_DENSE_ENTRY_LIMIT = 4_000_000
_ASSEMBLE_LIMIT = 4096
_COND_WARN = 1e10
# Pivoted Cholesky stops at the first pivot at or below this fraction of
# the Gram's largest diagonal entry: rounding leaves the pivots past a
# singular Gram's rank near n*eps (1e-15 at n = 2048), genuine ones > 1e-5.
_RANK_RTOL = 1e-10
_LSQR_TOL = 1e-12


class LiftedBlocks:
    """A tuple of per-user K_i x N_i complex matrices (one lifted variable)."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = [np.asarray(Z) for Z in blocks]

    @classmethod
    def from_truth(cls, ens):
        if ens.truth is None:
            raise DimensionError("ensemble has no ground truth")
        return cls([np.outer(h, np.conj(x)) for h, x in ens.truth])

    @property
    def dims(self):
        return tuple(Z.shape for Z in self.blocks)

    def copy(self):
        return LiftedBlocks([Z.copy() for Z in self.blocks])

    def norm(self):
        """Frobenius norm of the stacked variable, sqrt(sum_i ||Z_i||_F^2)."""
        return math.sqrt(sum(float(np.vdot(Z, Z).real) for Z in self.blocks))

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]


def pack(blocks):
    """Concatenate row-major vec(Z_i) over users into one complex vector."""
    arrs = [np.asarray(Z).reshape(-1) for Z in blocks]
    if not arrs:
        return np.zeros(0, dtype=complex)
    return np.concatenate(arrs).astype(complex, copy=False)


def unpack(vec, dims):
    """Inverse of pack for the given ((K_i, N_i), ...) dims."""
    if len(vec) != sum(k * n for k, n in dims):
        raise DimensionError(f"vector length {len(vec)} does not match dims {dims}")
    out = []
    at = 0
    for k, n in dims:
        out.append(vec[at : at + k * n].reshape(k, n))
        at += k * n
    return LiftedBlocks(out)


def _check_block(ens, i, Z):
    if not (0 <= i < ens.r):
        raise DimensionError(f"user index {i} out of range for r={ens.r}")
    Z = np.asarray(Z)
    if Z.shape != ens.dims[i]:
        raise DimensionError(f"block shape {Z.shape} != dims {ens.dims[i]}")
    return Z


def apply_op(ens, i, Z, method="auto"):
    """A_i(Z): the L measurements of one lifted block."""
    Z = _check_block(ens, i, Z)
    B, A = ens.B[i], ens.A[i]
    if method == "auto":
        method = "fast" if ens.L > _FAST_PATH_MIN_L else "dense"
    if method == "dense":
        return np.einsum("lk,kn,ln->l", B, Z, A)
    if ens.b_kind == PARTIAL_DFT:
        BZ = dft_matmul(Z, ens.L)
    else:
        BZ = B @ Z
    return (BZ * A).sum(axis=1)


def apply_adjoint(ens, i, z, method="auto"):
    """A_i^*(z) = B_i^* diag(z) A_i."""
    if not (0 <= i < ens.r):
        raise DimensionError(f"user index {i} out of range for r={ens.r}")
    z = np.asarray(z)
    if z.shape != (ens.L,):
        raise DimensionError(f"z has shape {z.shape}, expected ({ens.L},)")
    B, A = ens.B[i], ens.A[i]
    # both factors are conjugated in the adjoint; A is real for the
    # standard ensembles, but explicit matrices may be complex
    M = z[:, None] * np.conj(A)
    if method == "auto":
        method = "fast" if ens.L > _FAST_PATH_MIN_L else "dense"
    if method != "dense" and ens.b_kind == PARTIAL_DFT:
        return dft_rmatmul(M, ens.L, ens.dims[i][0])
    return B.conj().T @ M


def apply_composite(ens, blocks, method="auto"):
    """Phi acting on LiftedBlocks: sum_i A_i(Z_i)."""
    if len(blocks) != ens.r:
        raise DimensionError(f"{len(blocks)} blocks for r={ens.r}")
    y = np.zeros(ens.L, dtype=complex)
    for i, Z in enumerate(blocks):
        y += apply_op(ens, i, Z, method=method)
    return y


def apply_composite_adjoint(ens, z, method="auto"):
    """Phi^*: per-user adjoints gathered into LiftedBlocks."""
    return LiftedBlocks([apply_adjoint(ens, i, z, method=method) for i in range(ens.r)])


def apply_restricted(ens, i, p, partition, Z):
    """A_{i,p}(Z): the measurements on partition block Gamma_p only."""
    Z = _check_block(ens, i, Z)
    idx = partition.block(p)
    B, A = ens.B[i], ens.A[i]
    return ((B[idx] @ Z) * A[idx]).sum(axis=1)


def restricted_adjoint(ens, i, p, partition, zq):
    """A_{i,p}^*(z_q) for a vector living on Gamma_p."""
    idx = partition.block(p)
    zq = np.asarray(zq)
    if zq.shape != (len(idx),):
        raise DimensionError(f"z has shape {zq.shape}, expected ({len(idx)},)")
    B, A = ens.B[i], ens.A[i]
    return B[idx].conj().T @ (zq[:, None] * np.conj(A[idx]))


@dataclass
class BlockGram:
    """Gram T_{i,p} of one user's rows on one partition block, with its inverse.

    solve() applies S_{i,p} = T_{i,p}^{-1} through a cached Hermitian
    factorization.
    """

    i: int
    p: int
    T: np.ndarray
    _cho: tuple = field(default=None, repr=False)

    def __post_init__(self):
        K = self.T.shape[0]
        try:
            self._cho = scipy.linalg.cho_factor(self.T)
        except scipy.linalg.LinAlgError as exc:
            raise SingularGramError(
                f"T for user {self.i}, block {self.p} ({K}x{K}) is singular"
            ) from exc
        cond = float(np.linalg.cond(self.T))
        if cond > _COND_WARN:
            warnings.warn(
                f"T for user {self.i}, block {self.p} has condition number "
                f"{cond:.3e}; applying its inverse anyway",
                RuntimeWarning,
                stacklevel=2,
            )

    def solve(self, rhs):
        return scipy.linalg.cho_solve(self._cho, rhs)


def block_gram(ens, i, p, partition):
    """T_{i,p} = sum_{l in Gamma_p} b_{i,l} b_{i,l}^* and its solver."""
    idx = partition.block(p)
    K = ens.dims[i][0]
    if len(idx) < K:
        raise SingularGramError(
            f"block {p} has {len(idx)} rows < K_{i}={K}; T is singular"
        )
    Bp = ens.B[i][idx]
    T = Bp.conj().T @ Bp
    T = 0.5 * (T + T.conj().T)
    return BlockGram(i=i, p=p, T=T)


def composite_matrix(ens, lo=0, hi=None):
    """Dense Phi, shape L x sum(K_i N_i); row l is kron(B_i[l], A_i[l]) per user.

    lo and hi select the rows lo..hi-1 only.
    """
    cols = []
    for B, A in zip(ens.B, ens.A):
        B, A = B[lo:hi], A[lo:hi]
        n, K = B.shape
        N = A.shape[1]
        cols.append((B[:, :, None] * A[:, None, :]).reshape(n, K * N))
    if not cols:
        return np.zeros((ens.L, 0), dtype=complex)
    return np.concatenate(cols, axis=1)


def gram_matrix(ens):
    """Phi Phi^* assembled as sum_i (B_i B_i^*) .* (A_i A_i^*)."""
    G = np.zeros((ens.L, ens.L), dtype=complex)
    for B, A in zip(ens.B, ens.A):
        G += (B @ B.conj().T) * (A @ A.conj().T)
    return 0.5 * (G + G.conj().T)


class MeasurementMap:
    """The composite map Phi, or with real=True its real-stacked form P.

    For a real unknown z the complex constraint Phi z = y is equivalent to
    the rows = 2L real equations P z = [Re y; Im y] with P = [Re Phi;
    Im Phi], and P^T w = Re(Phi^* (w_re + i w_im)); complex variables use
    Phi itself (rows = L).  When L * sum K_i N_i <= _DENSE_ENTRY_LIMIT the
    matrix M (Phi, or P) is assembled once and mv/rmv are BLAS products
    with M and its contiguous adjoint; above it M is None and mv/rmv apply
    the per-user operators (FFT for partial-DFT B).
    """

    def __init__(self, ens, real=False):
        self.ens = ens
        self.real = bool(real)
        self.dtype = float if self.real else complex
        self.rows = 2 * ens.L if self.real else ens.L
        self.M = None
        if ens.L * ens.sum_kn <= _DENSE_ENTRY_LIMIT:
            Phi = composite_matrix(ens)
            self.M = np.vstack([Phi.real, Phi.imag]) if self.real else Phi
            self._MH = np.ascontiguousarray(self.M.conj().T)

    def mv(self, vec):
        """M vec for a packed variable."""
        if self.M is not None:
            return self.M @ vec
        if self.real:
            c = apply_composite(self.ens, unpack(vec.astype(complex), self.ens.dims))
            return np.concatenate([c.real, c.imag])
        return apply_composite(self.ens, unpack(vec, self.ens.dims))

    def rmv(self, res):
        """M^* res as a packed variable."""
        if self.M is not None:
            return self._MH @ res
        if self.real:
            L = self.ens.L
            g = pack(apply_composite_adjoint(self.ens, res[:L] + 1j * res[L:]))
            return np.ascontiguousarray(g.real)
        return pack(apply_composite_adjoint(self.ens, res))

    def gram(self):
        """A fresh M M^* to factor, or None where it is solved matrix-free.

        Real: P P^T whenever P is dense.  Complex: the Hadamard form of
        gram_matrix up to L = _ASSEMBLE_LIMIT, whether or not Phi is dense.
        """
        if self.real:
            return None if self.M is None else self.M @ self.M.T
        return gram_matrix(self.ens) if self.ens.L <= _ASSEMBLE_LIMIT else None

    def column_gram(self):
        """A fresh M^* M, sum K_i N_i square, to factor.

        Dense: _MH @ M.  Matrix-free: summed over chunks of at most
        sum K_i N_i rows of M, so that no chunk is larger than the Gram.
        """
        if self.M is not None:
            return self._MH @ self.M
        D = self.ens.sum_kn
        G = np.zeros((D, D), dtype=self.dtype)
        step = max(D // 2, 1) if self.real else D  # rows of Phi per chunk
        for lo in range(0, self.ens.L, step):
            C = composite_matrix(self.ens, lo, lo + step)
            if self.real:
                C = np.vstack([C.real, C.imag])
                G += C.T @ C
            else:
                G += C.conj().T @ C
        return G


def _gram_extremes_matfree(ens, tol=1e-7, cap=10000):
    """Extreme eigenvalues of Phi Phi^* without assembling it (large-L path)."""

    def gmul(z):
        return apply_composite(ens, apply_composite_adjoint(ens, z))

    op = scipy.sparse.linalg.LinearOperator(
        (ens.L, ens.L), matvec=gmul, dtype=complex
    )
    lam_max = float(
        scipy.sparse.linalg.eigsh(op, k=1, which="LA", tol=tol, maxiter=cap,
                                  return_eigenvectors=False)[0]
    )

    def smul(z):
        return lam_max * z - gmul(z)

    shifted = scipy.sparse.linalg.LinearOperator(
        (ens.L, ens.L), matvec=smul, dtype=complex
    )
    shift_top = float(
        scipy.sparse.linalg.eigsh(shifted, k=1, which="LA", tol=tol, maxiter=cap,
                                  return_eigenvectors=False)[0]
    )
    return max(lam_max - shift_top, 0.0), lam_max


def gram_spectrum(ens):
    """(lambda^2_min, lambda^2_max) of Phi Phi^*, to 1e-6 relative or better."""
    if ens.L <= _ASSEMBLE_LIMIT:
        w = np.linalg.eigvalsh(gram_matrix(ens))
        return max(float(w[0]), 0.0), max(float(w[-1]), 0.0)
    return _gram_extremes_matfree(ens)


class GramSolver:
    """Cached solver for the Gram of a MeasurementMap M, shifted by shift*I.

    It factors the smaller of the two Grams.  Side "row" (rows <= D =
    sum K_i N_i) is shift*I + M M^*: solve takes complex L-vectors for
    Phi, real 2L-vectors for the real-stacked P.  Side "col" (D < rows
    and D <= _ASSEMBLE_LIMIT) is shift*I + M^* M: solve takes packed
    variables.  An assembled Gram is factored once by pivoted Cholesky
    (LAPACK xPSTRF), which stops at the numerical rank k (attribute rank)
    of the n x n matrix.  k = n gives mode "chol".  k < n gives mode
    "pinv": a solve uses the leading k x k factor on the pivoted
    right-hand side, which is exact on right-hand sides in the range
    (on the row side M^* z is then unique), and range_part removes the
    part of a vector in the null space.  A row-side Gram the map does not
    assemble gives mode "cg": conjugate gradients, matrix-free, at
    tolerance 1e-10.

    The solver uses the operations that hide the side: projector
    (equality), normal_solve (ball step) and min_norm (ball snap).
    """

    def __init__(self, mmap, shift=0.0):
        self.map = mmap
        self.shift = float(shift)
        D = mmap.ens.sum_kn
        self.side = "col" if D < mmap.rows and D <= _ASSEMBLE_LIMIT else "row"
        self.size = D if self.side == "col" else mmap.rows
        self.rank = None
        self._null = None
        G = mmap.column_gram() if self.side == "col" else mmap.gram()
        if G is None:
            self._mode = "cg"
            return
        G[np.diag_indices_from(G)] += self.shift
        top = float(np.max(G.diagonal().real, initial=0.0))
        if not math.isfinite(top):
            raise ConfigError("the measurement matrices hold non-finite values")
        pstrf = scipy.linalg.lapack.dpstrf if mmap.real else scipy.linalg.lapack.zpstrf
        U, piv, rank, _info = pstrf(G, tol=_RANK_RTOL * top, overwrite_a=True)
        self.rank = int(rank)
        self._mode = "chol" if self.rank == self.size else "pinv"
        self._piv = piv - 1
        self._lead = self._piv[: self.rank]
        self._U11 = np.asfortranarray(U[: self.rank, : self.rank])
        self._trsv = scipy.linalg.blas.get_blas_funcs("trsv", (self._U11,))
        if self._mode == "pinv":
            self._U12 = U[: self.rank, self.rank :].copy()

    @property
    def path(self):
        """The map, the side and the mode, e.g. "dense/col/chol" or "matfree/row/cg"."""
        kind = "dense" if self.map.M is not None else "matfree"
        return f"{kind}/{self.side}/{self._mode}"

    def solve(self, rhs):
        mmap = self.map
        rhs = np.asarray(rhs, dtype=mmap.dtype)
        if self._mode == "cg":
            shift = self.shift
            op = scipy.sparse.linalg.LinearOperator(
                (self.size, self.size), matvec=lambda w: shift * w + mmap.mv(mmap.rmv(w)),
                dtype=mmap.dtype,
            )
            out, info = scipy.sparse.linalg.cg(op, rhs, rtol=1e-10, atol=0.0, maxiter=20000)
            if info != 0:
                raise ConvergenceError(f"CG on the Gram system did not converge (info={info})")
            return out
        # U11^* U11 x = b by two BLAS triangular solves: LAPACK potrs sends
        # a single right-hand side through trsm, 2-6x slower at n = 512-2048
        out = np.zeros(self.size, dtype=mmap.dtype)
        if self.rank:  # an all-zero map leaves nothing to solve for
            trsv, U11 = self._trsv, self._U11
            x = trsv(U11, rhs[self._lead], trans=2, overwrite_x=True)
            out[self._lead] = trsv(U11, x, overwrite_x=True)
        return out

    def _null_basis(self):
        """Orthonormal basis of the Gram's null space (mode pinv).

        The null space is spanned by [-U11^-1 U12; I] in pivoted order,
        orthonormalized once on first use.
        """
        if self._null is None:
            U11 = self._U11
            basis = np.zeros((self.size, self.size - self.rank), dtype=U11.dtype)
            basis[self._lead] = -scipy.linalg.solve_triangular(U11, self._U12)
            basis[self._piv[self.rank :], np.arange(self.size - self.rank)] = 1.0
            self._null = np.linalg.qr(basis)[0]
        return self._null

    def range_part(self, rhs):
        """rhs minus its projection onto the Gram's null space.

        Identity in modes chol and cg.
        """
        if self._mode != "pinv":
            return rhs
        Q = self._null_basis()
        return rhs - Q @ (Q.conj().T @ rhs)

    def min_norm(self, d):
        """M^+ d, the least-norm g that minimizes ||M g - d|| (shift 0 only).

        Column side: G^+ M^* d, the range part of a factored solve (M^* d
        lies in the range of G = M^* M).  Row side with a factored Gram:
        M^* G^+ d on the range part of d.  Matrix-free: LSQR through the
        map, whose iterates stay in the range of M^* and so converge to
        the least-norm solution.
        """
        mmap = self.map
        if self.side == "col":
            return self.range_part(self.solve(mmap.rmv(d)))
        if self._mode != "cg":
            return mmap.rmv(self.solve(self.range_part(d)))
        op = scipy.sparse.linalg.LinearOperator(
            (mmap.rows, mmap.ens.sum_kn), matvec=mmap.mv, rmatvec=mmap.rmv,
            dtype=mmap.dtype,
        )
        g, istop = scipy.sparse.linalg.lsqr(op, d, atol=_LSQR_TOL, btol=_LSQR_TOL,
                                            iter_lim=20000)[:2]
        if istop == 7:
            raise ConvergenceError("LSQR through the measurement map did not converge")
        return g

    def projector(self, y):
        """(x0, project) for the affine set {x : M x = y} (shift 0 only).

        x0 = min_norm(y) = M^+ y; M x0 = y exactly when y is in the range
        of M.  project(w) is the orthogonal projection of w onto the set,
        w - M^+ (M w - y).  Row side: w - M^* G^-1 (M w - y), one Gram
        solve per call.  Column side: x0 + N N^* w, N the orthonormal null
        basis of M; an injective map has none, and every call returns x0.
        """
        x0 = self.min_norm(y)
        mmap = self.map
        if self.side == "row":
            def project(w):
                return w - mmap.rmv(self.solve(mmap.mv(w) - y))
        elif self._mode == "chol":
            def project(w):
                return x0
        else:
            Q = self._null_basis()

            def project(w):
                return x0 + Q @ (Q.conj().T @ w)
        return x0, project

    def normal_solve(self, r):
        """(shift*I + M^* M)^-1 r for a packed variable r (shift > 0).

        Column side: one factored solve.  Row side, by the Woodbury
        identity: (r - M^* (shift*I + M M^*)^-1 M r) / shift.
        """
        if self.side == "col":
            return self.solve(r)
        mmap = self.map
        return (r - mmap.rmv(self.solve(mmap.mv(r)))) / self.shift
