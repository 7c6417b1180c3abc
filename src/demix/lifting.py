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
MeasurementMap, which picks dense or matrix-free application once.  Its
constraint, ||M x - y|| <= eta with eta = 0 the affine set M x = y, is
projected through projector, which factors the smaller of the map's two
Grams, M M^* or M^* M: by pivoted Cholesky at eta = 0, by eigh above
it, and by LSQR through the map where that Gram is not assembled.  For
partial-DFT B the column Gram M^* M has Toeplitz blocks and is built
from them (_dft_column_gram) at (K_i + K_j - 1) L N_i N_j per block
instead of L K_i N_i K_j N_j; generic orthonormal and explicit B form
it from the rows of M.
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
# Relative distance from y to the range of the map that an equality
# constraint, or a noise ball, may miss it by.
_CONSISTENCY_TOL = 1e-8
# The ball projection's relative tolerance on the radius and on its
# multiplier.
_SECULAR_RTOL = 1e-12


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


def _hadamard_sum(ens, adjoint):
    """sum_i (B_i B_i^op) .* (A_i A_i^op), op the conjugate transpose
    (Phi Phi^*) or the transpose (Phi Phi^T)."""
    S = np.zeros((ens.L, ens.L), dtype=complex) if not ens.B else None
    for B, A in zip(ens.B, ens.A):
        term = B @ (B.conj().T if adjoint else B.T)
        term *= A @ (A.conj().T if adjoint else A.T)
        if S is None:
            S = term
        else:
            S += term
    return S


def gram_matrix(ens):
    """Phi Phi^* assembled as sum_i (B_i B_i^*) .* (A_i A_i^*), exactly
    Hermitian and F-contiguous."""
    G = _hadamard_sum(ens, adjoint=True)
    H = np.conj(G.T)
    H += G
    H *= 0.5
    return H


def stacked_gram(ens):
    """P P^T for P = [Re Phi; Im Phi] from H = Phi Phi^* and the Hadamard sum
    T = Phi Phi^T: Re Phi Re Phi^T = Re(H + T)/2, Im Phi Im Phi^T =
    Re(H - T)/2 and Im Phi Re Phi^T = Im(H + T)/2.

    The quarters are written into one F-contiguous 2L x 2L array, exactly
    symmetric, allocated once H and T are reduced to S = H + T and
    Re(2H - S).
    """
    L = ens.L
    H = gram_matrix(ens)
    S = _hadamard_sum(ens, adjoint=False)
    S += H
    H = H.real * 2.0
    H -= S.real  # Re(2H - S)
    G = np.empty((2 * L, 2 * L), order="F")
    np.multiply(S.real, 0.5, out=G[:L, :L])
    np.multiply(S.imag, 0.5, out=G[L:, :L])
    np.multiply(S.imag.T, 0.5, out=G[:L, L:])
    np.multiply(H, 0.5, out=G[L:, L:])
    return G


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
        self.kind = "dense" if self.M is not None else "matfree"

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
        """A fresh M M^* to factor, F-contiguous, or None past rows =
        _ASSEMBLE_LIMIT.

        Real: P P^T, from P when it is dense and from stacked_gram when it
        is not.  Complex: the Hadamard form of gram_matrix, whether or not
        Phi is dense.
        """
        if self.real and self.M is not None:
            # numpy computes M @ M.T by syrk, exactly symmetric, so its
            # transpose is the same matrix in F order
            return (self.M @ self.M.T).T
        if self.rows > _ASSEMBLE_LIMIT:
            return None
        return stacked_gram(self.ens) if self.real else gram_matrix(self.ens)

    def column_gram(self):
        """A fresh M^* M, sum K_i N_i square, to factor.

        Partial-DFT B: from its Toeplitz blocks (_dft_column_gram), dense
        map or not, F-contiguous.  Otherwise (generic orthonormal or
        explicit B) dense: _MH @ M; matrix-free: summed over chunks of at
        most sum K_i N_i rows of M, so that no chunk is larger than the
        Gram.  Both of these cost L D^2 for D = sum K_i N_i.
        """
        if self.ens.b_kind == PARTIAL_DFT:
            return _dft_column_gram(self.ens, self.real)
        if self.M is not None:
            return self._MH @ self.M
        D = self.ens.sum_kn
        G = np.zeros((D, D), dtype=self.dtype, order="F")
        step = max(D // 2, 1) if self.real else D  # rows of Phi per chunk
        for lo in range(0, self.ens.L, step):
            C = composite_matrix(self.ens, lo, lo + step)
            if self.real:
                C = np.vstack([C.real, C.imag])
                G += C.T @ C
            else:
                G += C.conj().T @ C
        return G


def _dft_column_gram(ens, real):
    """Phi^* Phi (real: P^T P = Re Phi^* Phi) for partial-DFT B, by blocks.

    conj(B[l,k]) B[l,k'] = w^(l (k'-k)) / L, w = exp(-2 pi i / L), depends
    on k' - k only, so the (i, j) block is Toeplitz in (k, k'):

        T_ij[k'-k, n, n'] = (1/L) sum_l w^(l (k'-k)) conj(A_i[l,n]) A_j[l,n'].

    For j >= i and each column n of A_i, one (K_i + K_j - 1) x L Fourier
    matrix F (l d reduced mod L in integers) maps conj(A_i[:, n]) .* A_j to
    T_ij[:, n, :]; the (j, i) block is the conjugate transpose.  That is
    (K_i + K_j - 1) L N_i N_j per block against L K_i N_i K_j N_j from the
    rows of Phi.  Real variables with real A take Re F = cos(2 pi l d / L)
    / L, so every product is a real GEMM.
    """
    L, dims = ens.L, ens.dims
    D = ens.sum_kn
    G = np.empty((D, D), dtype=float if real else complex, order="F")
    at = np.cumsum([0] + [k * n for k, n in dims])
    l = np.arange(1, L + 1)
    for i, (Ki, Ni) in enumerate(dims):
        Ai = np.conj(ens.A[i])
        for j in range(i, len(dims)):
            Kj, Nj = dims[j]
            Aj = ens.A[j]
            theta = (2.0 * np.pi / L) * (np.outer(np.arange(1 - Ki, Kj), l) % L)
            cos_only = real and not (np.iscomplexobj(Ai) or np.iscomplexobj(Aj))
            F = np.cos(theta) / L if cos_only else np.exp(-1j * theta) / L
            T = np.empty((Ni, Ki + Kj - 1, Nj), dtype=G.dtype)
            for n in range(Ni):
                prod = F @ (Ai[:, n, None] * Aj)
                T[n] = prod.real if real else prod
            I, J = slice(at[i], at[i + 1]), slice(at[j], at[j + 1])
            block = G[I, J].reshape(Ki, Ni, Kj, Nj)  # a view: rows (k, n), columns (k', n')
            for k in range(Ki):
                block[k] = T[:, Ki - 1 - k : Ki - 1 - k + Kj]
            if j > i:
                G[J, I] = G[I, J].conj().T
    return G


def _gram_extremes_matfree(ens, tol=1e-7, cap=10000):
    """Extreme eigenvalues of Phi Phi^* without assembling it (large-L path):
    the top one of the Gram, then the top one of lam_max I minus the Gram."""

    def top(matvec):
        op = scipy.sparse.linalg.LinearOperator((ens.L, ens.L), matvec=matvec, dtype=complex)
        return float(scipy.sparse.linalg.eigsh(op, k=1, which="LA", tol=tol, maxiter=cap,
                                               return_eigenvectors=False)[0])

    def gmul(z):
        return apply_composite(ens, apply_composite_adjoint(ens, z))

    lam_max = top(gmul)
    return max(lam_max - top(lambda z: lam_max * z - gmul(z)), 0.0), lam_max


def gram_spectrum(ens):
    """(lambda^2_min, lambda^2_max) of Phi Phi^*, to 1e-6 relative or better."""
    if ens.L <= _ASSEMBLE_LIMIT:
        w = np.linalg.eigvalsh(gram_matrix(ens))
        return max(float(w[0]), 0.0), max(float(w[-1]), 0.0)
    return _gram_extremes_matfree(ens)


def _smaller_gram(mmap):
    """(side, G, top): the smaller Gram, M M^* (side "row") or M^* M (side
    "col"), None where it is not assembled, and its largest diagonal entry,
    checked finite before LAPACK."""
    D = mmap.ens.sum_kn
    side = "col" if D < mmap.rows and D <= _ASSEMBLE_LIMIT else "row"
    G = mmap.column_gram() if side == "col" else mmap.gram()
    top = 0.0 if G is None else float(np.max(G.diagonal().real, initial=0.0))
    if not math.isfinite(top):
        raise ConfigError("the measurement matrices hold non-finite values")
    return side, G, top


def _lsqr(mmap, d, damp=0.0):
    """argmin_g ||M g - d||^2 + damp^2 ||g||^2 by LSQR through the map."""
    op = scipy.sparse.linalg.LinearOperator(
        (mmap.rows, mmap.ens.sum_kn), matvec=mmap.mv, rmatvec=mmap.rmv,
        dtype=mmap.dtype,
    )
    g, istop = scipy.sparse.linalg.lsqr(op, d, damp=damp, atol=_LSQR_TOL,
                                        btol=_LSQR_TOL, iter_lim=20000)[:2]
    if istop == 7:
        raise ConvergenceError("LSQR through the measurement map did not converge")
    return g


def _affine_projector(mmap, side, G, top, y):
    """(mode, x0, project) for {x : M x = y} from the pivoted Cholesky
    factor (LAPACK xPSTRF) of the n x n smaller Gram G, which it
    overwrites: in place when G is F-contiguous (every Gram the map
    builds but the generic dense column Gram), else in the wrapper's copy.

    The factor stops at the numerical rank k: k = n is mode "chol", k < n
    mode "pinv", whose solves use the leading k x k factor U11 (exact on
    right-hand sides in the range) and whose orthonormalized null basis
    [-U11^-1 U12; I] (pivoted order) drops the part of a vector outside
    it.  x0 = M^+ y on either side.  Row side: project(w) = w - M^* G^+
    (M w - y), one solve per call.  Column side: x0 + N N^* w with N the
    null basis of M; an injective map has none, and every call returns
    x0.
    """
    mv, rmv, n = mmap.mv, mmap.rmv, G.shape[0]
    pstrf = scipy.linalg.lapack.dpstrf if mmap.real else scipy.linalg.lapack.zpstrf
    U, piv, rank, _info = pstrf(G, tol=_RANK_RTOL * top, overwrite_a=True)
    rank, piv = int(rank), piv - 1
    lead = piv[:rank]
    U11 = np.asfortranarray(U[:rank, :rank])
    trsv = scipy.linalg.blas.get_blas_funcs("trsv", (U11,))

    def solve(rhs):
        # U11^* U11 x = b by two BLAS triangular solves: LAPACK potrs sends
        # a single right-hand side through trsm, 2-6x slower at n = 512-2048
        out = np.zeros(n, dtype=mmap.dtype)
        if rank:  # an all-zero map leaves nothing to solve for
            x = trsv(U11, np.asarray(rhs, dtype=mmap.dtype)[lead], trans=2, overwrite_x=True)
            out[lead] = trsv(U11, x, overwrite_x=True)
        return out

    Q = None
    if rank < n:
        basis = np.zeros((n, n - rank), dtype=U11.dtype)
        basis[lead] = -scipy.linalg.solve_triangular(U11, U[:rank, rank:])
        basis[piv[rank:], np.arange(n - rank)] = 1.0
        Q = np.linalg.qr(basis)[0]

    def in_range(v):
        return v if Q is None else v - Q @ (Q.conj().T @ v)

    if side == "row":
        x0 = rmv(solve(in_range(y)))

        def project(w):
            return w - rmv(solve(mv(w) - y))
    else:
        x0 = in_range(solve(rmv(y)))

        def project(w):
            return x0 if Q is None else x0 + Q @ (Q.conj().T @ w)
    mode = "chol" if Q is None else "pinv"
    return mode, x0, project


def _secular_step(residual, rho, e, slope):
    """The step of residual(mu) = (rho(mu), step) at the mu where rho(mu) = e.

    rho(0) = rho > e, slope = -rho(0) rho'(0).  1/rho - 1/e is concave and
    increasing in mu (More & Sorensen, 1983), so a Newton step from mu = 0
    and secant steps rise to the root; a step past it (round-off) narrows
    a bracket.  It stops within _SECULAR_RTOL of e, or where mu stops
    moving, after at most 100 steps; e = 0 is the limit mu = inf.
    """
    if e == 0.0:
        return residual(math.inf)[1]
    lo, psi_lo, hi = 0.0, 1.0 / rho - 1.0 / e, math.inf
    mu = -psi_lo * rho**3 / slope
    for _ in range(100):
        rho, step = residual(mu)
        psi = 1.0 / rho - 1.0 / e
        secant = mu - psi * (mu - lo) / (psi - psi_lo) if psi != psi_lo else math.inf
        if psi < 0:
            lo, psi_lo = mu, psi
        else:
            hi = mu
        new = secant if lo < secant < hi else min(0.5 * (lo + hi), 2.0 * mu)
        if abs(rho - e) <= _SECULAR_RTOL * e or abs(new - mu) <= _SECULAR_RTOL * mu:
            return step
        mu = new
    raise ConvergenceError("the ball projection's secular equation did not converge")


def projector(mmap, y, eta=0.0):
    """(project, path): the Euclidean projection onto {x : ||M x - y|| <= eta}.

    eta = 0 is the affine set {x : M x = y}.  The factorization follows
    from eta and from whether the smaller Gram is assembled (path e.g.
    "dense/col/chol" or "matfree/row/lsqr"):

    - eta = 0, Gram assembled: pivoted Cholesky, modes "chol" and "pinv"
      (_affine_projector).
    - eta > 0, Gram assembled: mode "eigh".  With M = U S V^* of rank k
      and b = U^* y, the ball is ||S V^* x - b|| <= e, e^2 = eta^2 -
      ||y - U b||^2, and only c = V^* w moves, to (c + mu S b) / (1 + mu
      S^2), mu from the secular equation.  The row side keeps U and works
      through M w and M^* U, the column side keeps V.
    - Gram not assembled (rows past _ASSEMBLE_LIMIT): mode "lsqr", each
      trial step by LSQR, argmin ||M x - M M^+ y||^2 + ||x - w||^2 / mu;
      at eta = 0 one undamped solve, w - M^+ (M w - M M^+ y).

    project(w) is w itself when w lies inside.  ConfigError when y misses
    the range of M by more than eta + _CONSISTENCY_TOL ||y||; within it,
    e = 0 and the ball is the least-squares set.
    """
    mv, rmv = mmap.mv, mmap.rmv
    side, G, top = _smaller_gram(mmap)
    affine = None
    if G is None:
        mode, yr, back = "lsqr", mv(_lsqr(mmap, y)), (lambda g: g)  # yr = M M^+ y
        coords, slope = (lambda w: mv(w) - yr), (lambda d: float(np.linalg.norm(rmv(d))) ** 2)

        def trial(d, mu):  # the damped solution x = w - g
            g = _lsqr(mmap, d, damp=1.0 / math.sqrt(mu))
            return float(np.linalg.norm(d - mv(g))), g
    elif eta == 0.0:
        mode, x0, affine = _affine_projector(mmap, side, G, top, y)
        yr = mv(x0)
    else:
        s2, Q = np.linalg.eigh(G)
        keep = s2 > _RANK_RTOL * max(float(s2[-1]), 0.0)
        s2, Q = s2[keep], Q[:, keep]
        s, QH = np.sqrt(s2), np.ascontiguousarray(Q.conj().T)
        mode, slope = "eigh", (lambda r: float(s2 @ np.abs(r) ** 2))
        if side == "row":
            b = QH @ y
            yr = Q @ b
            coords, back = (lambda w: QH @ mv(w) - b), (lambda q: rmv(Q @ q))
        else:
            b = (QH @ rmv(y)) / s
            yr = mv(Q @ (b / s))
            coords, back = (lambda w: s * (QH @ w) - b), (lambda q: Q @ (s * q))

        def trial(r, mu):  # S c' - b = r / (1 + mu S^2) = q / mu
            q = r / (1.0 / mu + s2)
            return float(np.linalg.norm(q)) / mu, q
    ynorm, res = float(np.linalg.norm(y)), float(np.linalg.norm(y - yr))
    if res > eta + _CONSISTENCY_TOL * ynorm:
        raise ConfigError("the constraint is inconsistent: y misses the range of the map by "
                          "a relative least-squares residual %.3e, beyond the relative radius "
                          "%.3e; use ball mode with a larger eta" % (res / ynorm, eta / ynorm))
    path = f"{mmap.kind}/{side}/{mode}"
    if affine is not None:
        return affine, path
    e = math.sqrt(max(eta - res, 0.0) * (eta + res))

    def project(w):
        r = coords(w)
        rho = float(np.linalg.norm(r))
        if rho <= e * (1.0 + _SECULAR_RTOL):
            return w
        return w - back(_secular_step(lambda mu: trial(r, mu), rho, e, slope(r)))
    return project, path
