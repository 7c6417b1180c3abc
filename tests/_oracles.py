"""Brute-force reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit loops over
the defining formulas) so library fast paths have an independent
implementation to agree with.  The FFT transforms and the convolution
form of the model are here too: they check the paper's time-domain
reading of y, which the library itself never evaluates.
"""

import dataclasses
import math

import numpy as np

import demix
from demix.ensemble import PARTIAL_DFT
from demix.errors import ConfigError, DimensionError
from demix.incoherence import Partition


def dense_dft_loop(L, K):
    """Partial DFT entry-by-entry: B[l,k] = exp(-2 pi i l k / L)/sqrt(L), 1-based."""
    B = np.empty((L, K), dtype=complex)
    for l in range(1, L + 1):
        for k in range(1, K + 1):
            B[l - 1, k - 1] = np.exp(-2j * np.pi * l * k / L) / np.sqrt(L)
    return B


def slow_circular_conv(f, g):
    """O(L^2) cyclic convolution, (f*g)[n] = sum_m f[m] g[(n-m) mod L]."""
    L = len(f)
    out = np.zeros(L, dtype=np.result_type(f, g, np.float64))
    for n in range(L):
        for m in range(L):
            out[n] += f[m] * g[(n - m) % L]
    return out


def dft_rmatmul(M, L, K):
    """Compute B^* @ M by inverse FFT, B = partial_dft_matrix(L, K).

    M has L rows (vector or matrix). The 1-based labels show up as a
    one-slot roll and a per-row phase on top of the plain inverse FFT.
    """
    M = np.asarray(M)
    vec = M.ndim == 1
    if vec:
        M = M.reshape(-1, 1)
    if M.shape[0] != L:
        raise DimensionError(f"M has {M.shape[0]} rows, expected L={L}")
    t = np.roll(np.fft.ifft(M, axis=0) * L, -1, axis=0)[:K]
    kk = np.arange(K)
    phase = np.exp((2j * np.pi / L) * (kk + 1))
    out = phase[:, None] * t / math.sqrt(L)
    return out[:, 0] if vec else out


def idft_1based(v):
    """Inverse of the full (K = L) 1-based unitary DFT."""
    v = np.asarray(v)
    return dft_rmatmul(v, v.shape[0], v.shape[0])


def circular_convolve(f, g):
    """Cyclic convolution of equal-length vectors, (f*g)[n] = sum_m f[m] g[n-m mod L]."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.ndim != 1:
        raise DimensionError(f"need equal-length vectors, got {f.shape} and {g.shape}")
    out = np.fft.ifft(np.fft.fft(f) * np.fft.fft(g))
    if not (np.iscomplexobj(f) or np.iscomplexobj(g)):
        out = out.real
    return out


def conv_form_equivalence(ens):
    """Relative residual of the time-domain reading of the measurement model.

    Writing F for the 1-based unitary DFT, the frequency-domain model
    y = sum_i (B_i h_i) .* (A_i x_i) is equivalent to the time-domain
    statement that (1/sqrt(L)) F^{-1} y equals the sum of cyclic
    convolutions of f_i (= h_i padded to length L) with F^{-1}(A_i x_i),
    with the convolution normalized by 1/L and taken in 1-based indexing
    (a one-slot cyclic shift of the 0-based array convolution).

    Returns ||lhs - rhs|| / ||y|| (0.0 for the degenerate y = 0); for a
    noiseless instance this is numerically zero, for a noisy one it
    reflects the noise.
    """
    if ens.b_kind != PARTIAL_DFT:
        raise ConfigError(
            "conv_form_equivalence is a partial-DFT statement; unsupported for "
            f"b_kind={ens.b_kind!r}"
        )
    L = ens.L
    ynorm = np.linalg.norm(ens.y)
    if ynorm == 0:
        return 0.0
    if ens.truth is None:
        raise ConfigError("conv_form_equivalence needs ground truth")
    lhs = idft_1based(ens.y) / math.sqrt(L)
    rhs = np.zeros(L, dtype=complex)
    for Bi, Ai, (h, x) in zip(ens.B, ens.A, ens.truth):
        f = np.zeros(L, dtype=complex)
        f[: len(h)] = h
        v = idft_1based(Ai @ x)
        rhs = rhs + np.roll(circular_convolve(f, v), 1) / L
    return float(np.linalg.norm(lhs - rhs) / ynorm)


def slow_apply_op(B, A, Z):
    """Measurement map, one entry at a time: y_l = b_l^* Z a_l = B[l] @ Z @ A[l]."""
    L = B.shape[0]
    y = np.zeros(L, dtype=complex)
    for l in range(L):
        y[l] = B[l] @ Z @ A[l]
    return y


def slow_adjoint(B, A, z):
    """Adjoint, one rank-one term at a time: sum_l z_l b_l a_l^*."""
    K, N = B.shape[1], A.shape[1]
    out = np.zeros((K, N), dtype=complex)
    for l in range(B.shape[0]):
        out += z[l] * np.outer(np.conj(B[l]), np.conj(A[l]))
    return out


def slow_phi(B, A):
    """Dense matrix of the per-user map on vec(Z) (row-major vec)."""
    L, K = B.shape
    N = A.shape[1]
    Phi = np.zeros((L, K * N), dtype=complex)
    for l in range(L):
        Phi[l] = np.kron(B[l], A[l])
    return Phi


def tangent_projector(h, x):
    """Orthogonal projector onto T = {h u^* + v x^*} on row-major vec(Z),
    from an orthonormal basis of its K + N spanning matrices h e_n^* and
    e_k x^* (rank K + N - 1, found by SVD)."""
    h, x = h / np.linalg.norm(h), x / np.linalg.norm(x)
    span = [np.outer(h, e) for e in np.eye(len(x))] + [np.outer(e, np.conj(x)) for e in np.eye(len(h))]
    U, s, _ = np.linalg.svd(np.stack([Z.reshape(-1) for Z in span], axis=1), full_matrices=False)
    U = U[:, s > 1e-10 * s[0]]
    return U @ U.conj().T


def slow_local_isometry(B, A, h, x, rows=None):
    """||P_T Phi^* Phi S P_T - P_T||_2 from the dense Phi and an SVD.

    Without rows, Phi is the whole map and S = I; with rows, Phi keeps
    those rows only and S = (B_rows^* B_rows)^{-1} acts on the left of Z,
    kron(S, I_N) on row-major vec(Z).
    """
    P = tangent_projector(h, x)
    K, N = B.shape[1], A.shape[1]
    S = np.eye(K * N)
    if rows is not None:
        B, A = B[rows], A[rows]
        S = np.kron(np.linalg.inv(B.conj().T @ B), np.eye(N))
    Phi = slow_phi(B, A)
    return np.linalg.svd(P @ Phi.conj().T @ Phi @ S @ P - P, compute_uv=False)[0]


def slow_mutual_incoherence(B_list, A_list, truth):
    """max over j < k of ||P_{T_j} Phi_j^* Phi_k P_{T_k}||_2, matrixized."""
    P = [tangent_projector(h, x) for h, x in truth]
    Phi = [slow_phi(B, A) for B, A in zip(B_list, A_list)]
    return max(
        np.linalg.svd(P[j] @ Phi[j].conj().T @ Phi[k] @ P[k], compute_uv=False)[0]
        for j in range(len(P)) for k in range(j + 1, len(P))
    )


def slow_composite_phi(B_list, A_list):
    """Dense matrix of the stacked multi-user map."""
    return np.concatenate([slow_phi(B, A) for B, A in zip(B_list, A_list)], axis=1)


def stacked_phi(B_list, A_list):
    """Real-stacked composite matrix P = [Re Phi; Im Phi]."""
    Phi = slow_composite_phi(B_list, A_list)
    return np.vstack([Phi.real, Phi.imag])


def pinv_solve(G, rhs, rcut=1e-12):
    """Minimum-norm solution of G z = rhs for a Hermitian PSD G.

    Eigen-decomposes G and drops eigenvalues at or below rcut times the
    largest, so on a rank-deficient G this solves in the range only.
    """
    w, V = np.linalg.eigh(G)
    keep = w > rcut * max(float(w[-1]), 0.0)
    Vk = V[:, keep]
    return Vk @ ((Vk.conj().T @ rhs) / w[keep])


def constraint_project(M, y, eta, w):
    """Euclidean projection of w onto {x : ||M x - y|| <= eta}.

    eta = 0, for a y in the range of M: the affine projection
    w - M^+ (M w - y), with M^+ d = M^* pinv_solve(M M^*, d).  eta > 0: by
    bisection.  x(mu) = (I + mu M^* M)^-1 (w + mu M^* y) minimizes
    ||x - w||^2 + mu ||M x - y||^2, and its residual falls as mu grows;
    the projection is x(mu) at the mu where the residual reaches eta, or w
    when w is inside.
    """
    MH = M.conj().T
    if eta == 0:
        return w - MH @ pinv_solve(M @ MH, M @ w - y)
    H = MH @ M
    eye = np.eye(M.shape[1])

    def x_of(mu):
        return np.linalg.solve(eye + mu * H, w + mu * (MH @ y))

    def outside(mu):
        return np.linalg.norm(M @ x_of(mu) - y) > eta

    if not outside(0.0):
        return w
    lo, hi = 0.0, 1.0
    while outside(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if outside(mid) else (lo, mid)
    return x_of(hi)


# The regimes of lifting.projector: id -> (ensemble, real variables,
# lifting attributes patched, path at eta = 0, path at eta > 0).  The
# solver factors the smaller Gram, M M^* (side "row") or M^* M (side
# "col", sum K_i N_i below the row count).  Generic orthonormal B has no
# real rows, so ORTHO's row Gram has full rank, and so has TALL's column
# Gram.  Rank-deficient: REPEATED's row Gram (a measurement row listed
# twice, rank 15 < 16), STACKED_DFT's real row Gram (the real DFT rows
# l = L and L/2 leave rank 22 < 24) and DUPLICATED's column Gram (a user
# listed twice, rank 6 < 12).  With _ASSEMBLE_LIMIT at 0 no Gram is
# assembled and every map runs LSQR on the row side.  The column Gram
# takes one of two paths, by b_kind: TALL's partial-DFT B builds it from
# its Toeplitz blocks, DUPLICATED (explicit matrices, b_kind None) sums it
# over chunks of the rows of M.  The matfree-* regimes run with
# composite_matrix patched to raise, so that they check that the map, its
# Grams and the projector form no row of M; their duplicated column
# regimes are DUPLICATED_DFT, the same matrices typed as partial DFT,
# whose rank-deficient column Gram comes from the Toeplitz blocks.
ORTHO = dict(L=16, dims=[(4, 5), (4, 5)], b_kind="ortho", seed=3)
STACKED_DFT = dict(L=12, dims=[(4, 4), (3, 3)], seed=12)
TALL = dict(L=24, dims=[(2, 3)], seed=11)
REPEATED = "repeated"
DUPLICATED = "duplicated"
DUPLICATED_DFT = "duplicated-dft"


def no_rows(*args, **kwargs):
    """Stands in for lifting.composite_matrix where no row of M may be formed."""
    raise AssertionError("lifting.composite_matrix called")


_NO_ROWS = {"composite_matrix": no_rows}
_NO_GRAM = {"_ASSEMBLE_LIMIT": 0}
_LSQR = "row/lsqr"
REGIMES = {
    "row-complex": (ORTHO, False, {}, "row/chol", "row/eigh"),
    "row-real": (ORTHO, True, {}, "row/chol", "row/eigh"),
    "row-complex-repeated": (REPEATED, False, {}, "row/pinv", "row/eigh"),
    "row-real-rank22": (STACKED_DFT, True, {}, "row/pinv", "row/eigh"),
    "col-complex": (TALL, False, {}, "col/chol", "col/eigh"),
    "col-real": (TALL, True, {}, "col/chol", "col/eigh"),
    "col-complex-duplicated": (DUPLICATED, False, {}, "col/pinv", "col/eigh"),
    "col-real-duplicated": (DUPLICATED, True, {}, "col/pinv", "col/eigh"),
    "matfree-row-complex": (ORTHO, False, _NO_ROWS, "row/chol", "row/eigh"),
    "matfree-row-real": (ORTHO, True, _NO_ROWS, "row/chol", "row/eigh"),
    "matfree-row-complex-repeated": (REPEATED, False, _NO_ROWS, "row/pinv", "row/eigh"),
    "matfree-row-real-rank22": (STACKED_DFT, True, _NO_ROWS, "row/pinv", "row/eigh"),
    "matfree-col-complex": (TALL, False, _NO_ROWS, "col/chol", "col/eigh"),
    "matfree-col-real": (TALL, True, _NO_ROWS, "col/chol", "col/eigh"),
    "matfree-col-complex-duplicated": (DUPLICATED_DFT, False, _NO_ROWS, "col/pinv",
                                       "col/eigh"),
    "matfree-col-real-duplicated": (DUPLICATED_DFT, True, _NO_ROWS, "col/pinv", "col/eigh"),
    "lsqr-complex-full-rank": (ORTHO, False, _NO_GRAM, _LSQR, _LSQR),
    "lsqr-real-rank22": (STACKED_DFT, True, _NO_GRAM, _LSQR, _LSQR),
    "lsqr-complex-tall": (TALL, False, _NO_GRAM, _LSQR, _LSQR),
}


def regime_ensemble(kw):
    """The ensemble a REGIMES entry names: make_ensemble keywords, or one
    of the rank-deficient constructions."""
    if kw in (DUPLICATED, DUPLICATED_DFT):
        e = demix.make_ensemble(25, [(2, 3)], seed=11)
        e2 = demix.from_matrices(e.B * 2, e.A * 2, e.truth * 2)
        return dataclasses.replace(e2, b_kind="dft") if kw == DUPLICATED_DFT else e2
    if kw == REPEATED:
        e = demix.make_ensemble(**ORTHO)
        B = [np.vstack([b[:1], b[:1], b[2:]]) for b in e.B]
        A = [np.vstack([a[:1], a[:1], a[2:]]) for a in e.A]
        return demix.from_matrices(B, A, e.truth)
    return demix.make_ensemble(**kw)


def contiguous_partition(L, P):
    """Consecutive runs of Q = L/P rows; no isometry guarantee (for stress tests)."""
    Q = L // P
    blocks = tuple(np.arange(p * Q, (p + 1) * Q) for p in range(P))
    return Partition(L=L, P=P, Q=Q, blocks=blocks)
