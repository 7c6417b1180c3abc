"""Brute-force reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit loops over
the defining formulas) so library fast paths have an independent
implementation to agree with.
"""

import numpy as np

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


def ball_project(M, y, eta, w):
    """Euclidean projection of w onto {x : ||M x - y|| <= eta}, by bisection.

    x(mu) = (I + mu M^* M)^-1 (w + mu M^* y) minimizes ||x - w||^2 +
    mu ||M x - y||^2, and its residual falls as mu grows; the projection is
    x(mu) at the mu where the residual reaches eta, or w when w is inside.
    """
    H = M.conj().T @ M
    eye = np.eye(M.shape[1])

    def x_of(mu):
        return np.linalg.solve(eye + mu * H, w + mu * (M.conj().T @ y))

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


def contiguous_partition(L, P):
    """Consecutive runs of Q = L/P rows; no isometry guarantee (for stress tests)."""
    Q = L // P
    blocks = tuple(np.arange(p * Q, (p + 1) * Q) for p in range(P))
    return Partition(L=L, P=P, Q=Q, blocks=blocks)
