import numpy as np
import pytest

import demix
from demix import incoherence as inc
from demix import lifting as lf
from demix.errors import ConfigError, DimensionError, SingularGramError

from _oracles import (
    pinv_solve,
    slow_adjoint,
    slow_apply_op,
    slow_composite_phi,
    stacked_phi,
)

RNG = np.random.default_rng(20240501)


def crandn(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def test_apply_op_definition():
    e = demix.make_ensemble(12, [(3, 3)], seed=5)
    Z = crandn(3, 3)
    assert np.abs(lf.apply_op(e, 0, Z) - slow_apply_op(e.B[0], e.A[0], Z)).max() < 1e-12
    assert np.abs(lf.apply_op(e, 0, np.zeros((3, 3)))).max() == 0.0
    # rank-one input reproduces the synthesis formula
    h, x = crandn(3), crandn(3)
    got = lf.apply_op(e, 0, np.outer(h, x.conj()))
    assert np.abs(got - (e.B[0] @ h) * (e.A[0] @ x.conj())).max() < 1e-12
    with pytest.raises(DimensionError):
        lf.apply_op(e, 0, np.zeros((4, 3)))
    with pytest.raises(DimensionError):
        lf.apply_op(e, 1, Z)


def test_fast_path_equals_dense():
    for kwargs in (
        dict(b_kind="dft", a_kind="gaussian"),
        dict(b_kind="ortho", a_kind="gaussian"),
        dict(b_kind="dft", a_kind="hadamard"),
    ):
        e = demix.make_ensemble(64, [(5, 4), (3, 6)], seed=8, **kwargs)
        for i in range(2):
            Z = crandn(*e.dims[i])
            z = crandn(64)
            a = lf.apply_op(e, i, Z, method="dense")
            b = lf.apply_op(e, i, Z, method="fast")
            assert np.abs(a - b).max() < 1e-10
            a = lf.apply_adjoint(e, i, z, method="dense")
            b = lf.apply_adjoint(e, i, z, method="fast")
            assert np.abs(a - b).max() < 1e-10


def test_adjoint_identity_property():
    # <A(Z), z> = <Z, A*(z)> across random shapes and matrix kinds
    for t in range(12):
        L = int(RNG.integers(4, 40))
        dims = [(int(RNG.integers(1, min(L, 6) + 1)), int(RNG.integers(1, 7)))
                for _ in range(int(RNG.integers(1, 4)))]
        a_kind = "gaussian"
        e = demix.make_ensemble(L, dims, a_kind=a_kind, seed=100 + t)
        for i in range(e.r):
            Z = crandn(*e.dims[i])
            z = crandn(L)
            lhs = np.vdot(z, lf.apply_op(e, i, Z))
            rhs = np.vdot(lf.apply_adjoint(e, i, z), Z)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_adjoint_examples():
    e = demix.make_ensemble(16, [(3, 4)], seed=6)
    assert np.abs(lf.apply_adjoint(e, 0, np.zeros(16))).max() == 0.0
    z = crandn(16)
    assert np.abs(lf.apply_adjoint(e, 0, z) - slow_adjoint(e.B[0], e.A[0], z)).max() < 1e-12
    el = np.zeros(16)
    el[5] = 1.0
    want = np.outer(np.conj(e.B[0][5]), e.A[0][5])
    assert np.abs(lf.apply_adjoint(e, 0, el) - want).max() < 1e-12


def test_composite_and_linearity():
    e = demix.make_ensemble(20, [(3, 3), (2, 4)], seed=7)
    Zs = lf.LiftedBlocks([crandn(3, 3), crandn(2, 4)])
    Ws = lf.LiftedBlocks([crandn(3, 3), crandn(2, 4)])
    a, b = 1.3 - 0.7j, -0.2 + 2.1j
    comb = lf.LiftedBlocks([a * Z + b * W for Z, W in zip(Zs, Ws)])
    lhs = lf.apply_composite(e, comb)
    rhs = a * lf.apply_composite(e, Zs) + b * lf.apply_composite(e, Ws)
    assert np.abs(lhs - rhs).max() < 1e-12
    # r=1 reduces to apply_op
    e1 = demix.make_ensemble(20, [(3, 3)], seed=7)
    Z = crandn(3, 3)
    assert np.array_equal(lf.apply_composite(e1, [Z]), lf.apply_op(e1, 0, Z))
    # truth blocks synthesize y exactly on a noiseless instance
    assert np.abs(lf.apply_composite(e, lf.LiftedBlocks.from_truth(e)) - e.y).max() < 1e-12
    # adjoint gathers per-user blocks
    z = crandn(20)
    back = lf.apply_composite_adjoint(e, z)
    for i in range(2):
        assert np.abs(back[i] - lf.apply_adjoint(e, i, z)).max() == 0.0


def test_pack_unpack_roundtrip():
    dims = ((3, 4), (2, 5))
    blocks = lf.LiftedBlocks([crandn(3, 4), crandn(2, 5)])
    v = lf.pack(blocks)
    assert v.shape == (22,)
    back = lf.unpack(v, dims)
    for a, b in zip(blocks, back):
        assert np.array_equal(a, b)
    with pytest.raises(DimensionError):
        lf.unpack(v[:-1], dims)


def test_restricted_ops():
    e = demix.make_ensemble(24, [(4, 3)], seed=9)
    part = inc.dft_partition(24, 4)
    Z = crandn(4, 3)
    full = lf.apply_op(e, 0, Z)
    seen = np.zeros(24, dtype=complex)
    for p in range(part.P):
        sub = lf.apply_restricted(e, 0, p, part, Z)
        assert np.abs(sub - full[part.block(p)]).max() < 1e-12
        seen[part.block(p)] = sub
    assert np.abs(seen - full).max() < 1e-12
    # P=1 equals apply_op
    p1 = inc.dft_partition(24, 1)
    assert np.abs(lf.apply_restricted(e, 0, 0, p1, Z) - full).max() < 1e-12
    # restricted adjoint = masked full adjoint
    zq = crandn(part.Q)
    zfull = np.zeros(24, dtype=complex)
    zfull[part.block(1)] = zq
    want = lf.apply_adjoint(e, 0, zfull)
    assert np.abs(lf.restricted_adjoint(e, 0, 1, part, zq) - want).max() < 1e-12
    with pytest.raises(IndexError):
        lf.apply_restricted(e, 0, 4, part, Z)


def test_block_gram():
    e = demix.make_ensemble(32, [(5, 3)], seed=10)
    part = inc.dft_partition(32, 4)
    for p in range(4):
        g = lf.block_gram(e, 0, p, part)
        assert np.abs(g.T - (part.Q / 32) * np.eye(5)).max() < 1e-12
    # P=1: T = B^* B = I
    g = lf.block_gram(e, 0, 0, inc.dft_partition(32, 1))
    assert np.abs(g.T - np.eye(5)).max() < 1e-12
    # random orthonormal B vs direct outer-product summation
    eo = demix.make_ensemble(16, [(3, 3)], b_kind="ortho", seed=11)
    po = inc.dft_partition(16, 2)
    g = lf.block_gram(eo, 0, 1, po)
    T = np.zeros((3, 3), dtype=complex)
    for l in po.block(1):
        b_l = np.conj(eo.B[0][l])
        T += np.outer(b_l, b_l.conj())
    assert np.abs(g.T - T).max() < 1e-12
    # solve and explicit inverse agree
    rhs = crandn(3)
    assert np.abs(g.T @ g.solve(rhs) - rhs).max() < 1e-12
    assert np.abs(g.S - np.linalg.inv(g.T)).max() < 1e-10
    # singular: block shorter than K
    with pytest.raises(SingularGramError):
        lf.block_gram(demix.make_ensemble(16, [(5, 2)], seed=1), 0, 0, inc.dft_partition(16, 4))


def test_composite_matrix_and_gram():
    e = demix.make_ensemble(16, [(3, 3), (2, 4)], seed=12)
    Phi = lf.composite_matrix(e)
    assert np.abs(Phi - slow_composite_phi(e.B, e.A)).max() < 1e-12
    # Phi acts on packed blocks exactly like apply_composite
    Zs = lf.LiftedBlocks([crandn(3, 3), crandn(2, 4)])
    assert np.abs(Phi @ lf.pack(Zs) - lf.apply_composite(e, Zs)).max() < 1e-12
    G = lf.gram_matrix(e)
    assert np.abs(G - Phi @ Phi.conj().T).max() < 1e-10
    P = stacked_phi(e.B, e.A)
    assert np.abs(lf.gram_matrix(e, real=True) - P @ P.T).max() < 1e-10


def test_gram_spectrum():
    # B = I, A = c * orthogonal: Phi Phi^* = c^2 I exactly
    rng = np.random.default_rng(3)
    L, c = 12, 2.0
    Q, _ = np.linalg.qr(rng.standard_normal((L, L)))
    eg = demix.from_matrices(
        [np.eye(L, dtype=complex)], [c * Q],
        [(rng.standard_normal(L), rng.standard_normal(L))],
    )
    lo, hi = lf.gram_spectrum(eg)
    assert abs(lo - c * c) < 1e-8 and abs(hi - c * c) < 1e-8
    w = np.linalg.eigvalsh(lf.composite_matrix(eg) @ lf.composite_matrix(eg).conj().T)
    assert abs(lo - w[0]) < 1e-8 and abs(hi - w[-1]) < 1e-8
    # homogeneity: scaling every A by c scales both ends by c^2
    e = demix.make_ensemble(32, [(4, 4), (3, 6)], seed=9)
    lo1, hi1 = lf.gram_spectrum(e)
    e2 = demix.from_matrices(e.B, [3.0 * a for a in e.A], e.truth)
    lo2, hi2 = lf.gram_spectrum(e2)
    assert abs(lo2 / lo1 - 9.0) < 1e-6 and abs(hi2 / hi1 - 9.0) < 1e-6
    # overdetermined lifting: finite positive condition number, reported
    e3 = demix.make_ensemble(32, [(6, 6)] * 3, seed=13)
    lo3, hi3 = lf.gram_spectrum(e3)
    assert 0 < lo3 <= hi3 < np.inf
    # matrix-free path agrees with the assembled one
    lo4, hi4 = lf._gram_extremes_matfree(e3, tol=1e-9)
    assert abs(lo4 - lo3) < 1e-5 * hi3 and abs(hi4 - hi3) < 1e-6 * hi3


def test_gram_solver_modes():
    rng = np.random.default_rng(4)
    e = demix.make_ensemble(32, [(4, 4), (3, 6)], seed=9)
    G = lf.gram_matrix(e)
    rhs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    gs = lf.GramSolver(e)
    assert gs._mode == "chol"
    assert np.linalg.norm(G @ gs.solve(rhs) - rhs) < 1e-10 * np.linalg.norm(rhs)
    # conjugate-gradient path (forced) matches
    gs_cg = lf.GramSolver(e, assemble_limit=0)
    assert gs_cg._mode == "cg"
    assert np.linalg.norm(gs_cg.solve(rhs) - gs.solve(rhs)) < 1e-7
    # structurally singular Gram: pseudo-inverse on a consistent rhs
    e4 = demix.make_ensemble(24, [(2, 3)], seed=11)
    gs_p = lf.GramSolver(e4)
    assert gs_p._mode == "pinv"
    rhs4 = lf.composite_matrix(e4) @ lf.pack(lf.LiftedBlocks.from_truth(e4))
    z = gs_p.solve(rhs4)
    assert np.linalg.norm(lf.gram_matrix(e4) @ z - rhs4) < 1e-12
    # shifted system is always positive definite
    gs_s = lf.GramSolver(e4, shift=1.0)
    assert gs_s._mode == "chol"
    M = lf.gram_matrix(e4) + np.eye(24)
    assert np.linalg.norm(M @ gs_s.solve(rhs4) - rhs4) < 1e-12


def _gram_case(e, real, shift):
    """Dense map M (Phi, or the stacked P) and the matrix shift*I + M M^*."""
    M = stacked_phi(e.B, e.A) if real else slow_composite_phi(e.B, e.A)
    return M, M @ M.conj().T + shift * np.eye(M.shape[0])


def _draw(rng, shape, real):
    z = rng.standard_normal(shape)
    return z if real else z + 1j * rng.standard_normal(shape)


# (ensemble, real, shift, mode when factored): generic orthonormal B has
# no real rows, so with sum K_i N_i >= the row count the Gram has full
# rank; below it the rank is sum K_i N_i.
_REGIMES = [
    (dict(L=16, dims=[(4, 5), (4, 5)], b_kind="ortho", seed=3), False, 0.0, "chol"),
    (dict(L=16, dims=[(4, 5), (4, 5)], b_kind="ortho", seed=3), True, 0.0, "chol"),
    (dict(L=24, dims=[(2, 3)], seed=11), False, 0.0, "pinv"),
    (dict(L=24, dims=[(2, 3)], seed=11), True, 0.0, "pinv"),
    (dict(L=24, dims=[(2, 3)], seed=11), True, 1.0, "chol"),
]


@pytest.mark.parametrize("kw,real,shift,mode", _REGIMES)
@pytest.mark.parametrize("assembled", [True, False])
def test_gram_solver_regimes_match_pinv_oracle(kw, real, shift, mode, assembled):
    rng = np.random.default_rng(17)
    e = demix.make_ensemble(**kw)
    M, G = _gram_case(e, real, shift)
    gs = lf.GramSolver(e, shift=shift, real=real,
                       assemble_limit=lf._ASSEMBLE_LIMIT if assembled else 0)
    assert gs._mode == (mode if assembled else "cg")
    # a consistent right-hand side: M^* z is unique, so it matches the
    # minimum-norm oracle even where z itself is not unique
    rhs = M @ _draw(rng, M.shape[1], real) + shift * _draw(rng, M.shape[0], real)
    z = gs.solve(rhs)
    assert z.dtype == (float if real else complex)
    want = pinv_solve(G, rhs)
    scale = np.linalg.norm(M.conj().T @ want)
    assert np.linalg.norm(M.conj().T @ (z - want)) <= 1e-8 * scale
    assert np.linalg.norm(G @ z - rhs) <= 1e-8 * np.linalg.norm(rhs)
    if gs._mode == "chol":
        assert np.linalg.norm(z - want) <= 1e-9 * np.linalg.norm(want)
    # the range part of an arbitrary vector is G G^+ d; identity at full rank
    d = _draw(rng, M.shape[0], real)
    if gs._mode == "pinv":
        assert gs.rank == e.sum_kn
        want_r = G @ pinv_solve(G, d)
        assert np.linalg.norm(gs.range_part(d) - want_r) <= 1e-10 * np.linalg.norm(d)
    else:
        assert gs.range_part(d) is d


@pytest.mark.parametrize("L", [24, 25])
def test_stacked_partial_dft_structural_rank(L):
    # Rows l = L (and l = L/2 for even L) of a partial DFT are real, so the
    # matching imaginary rows of P vanish: rank 2L-2 for even L, 2L-1 for
    # odd L, however many unknowns there are.
    e = demix.make_ensemble(L, [(6, 6), (6, 6)], seed=L)
    assert e.sum_kn >= 2 * L
    gs = lf.GramSolver(e, real=True)
    assert gs._mode == "pinv"
    assert gs.rank == 2 * L - (2 if L % 2 == 0 else 1)
    w = np.linalg.eigvalsh(_gram_case(e, True, 0.0)[1])
    assert int((w > 1e-12 * w[-1]).sum()) == gs.rank
    # the complex Gram of the same map keeps full rank
    assert lf.GramSolver(e)._mode == "chol"


@pytest.mark.parametrize("dims,rank", [([(6, 6), (5, 6)], 62), ([(4, 4)], 16)])
def test_gram_solver_ball_snap_matches_oracle(dims, rank):
    # The ball-mode snap moves the estimate by g = P^T G^+ d, where the
    # residual d = P z - y has a part no real estimate can reach: the noise
    # on the two vanishing imaginary rows (sum K_i N_i >= 2L), or on the
    # whole complement of a thin P.  Pivoted factor and eigh oracle agree
    # to round-off.
    rng = np.random.default_rng(8)
    e = demix.make_ensemble(32, dims, eta=0.1, seed=21)
    P, G = _gram_case(e, True, 0.0)
    d = P @ rng.standard_normal(e.sum_kn) - np.concatenate([e.y.real, e.y.imag])
    gs = lf.GramSolver(e, real=True)
    assert gs._mode == "pinv" and gs.rank == rank
    g = P.T @ gs.solve(gs.range_part(d))
    want = P.T @ pinv_solve(G, d)
    assert np.linalg.norm(g - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(P @ g - G @ pinv_solve(G, d)) <= 1e-10 * np.linalg.norm(d)
    if rank == e.sum_kn:
        # a thin P has a null space off the coordinate axes: solving
        # without removing the unreachable part first lands elsewhere
        assert np.linalg.norm(P.T @ gs.solve(d) - want) > 1e-3 * np.linalg.norm(want)


def test_gram_solver_zero_map():
    # an all-zero map has rank 0: no right-hand side has a part in range
    e = demix.from_matrices(
        [np.zeros((8, 2), dtype=complex)], [np.zeros((8, 2))], [(np.ones(2), np.ones(2))]
    )
    for real in (False, True):
        gs = lf.GramSolver(e, real=real)
        assert gs._mode == "pinv" and gs.rank == 0
        d = np.ones(gs.size)
        assert not gs.solve(d).any() and not gs.range_part(d).any()


def test_gram_solver_rejects_non_finite_matrices():
    e = demix.make_ensemble(16, [(3, 3)], seed=2)
    e.A[0][4, 1] = np.nan
    for real in (False, True):
        with pytest.raises(ConfigError):
            lf.GramSolver(e, real=real)


def test_expectation_consistency():
    # sample mean of A^* A (Z) over fresh Gaussian A approaches Z
    rng = np.random.default_rng(5)
    K = N = 4
    Z = rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))
    acc = np.zeros((K, N), dtype=complex)
    draws = 200
    for t in range(draws):
        et = demix.make_ensemble(64, [(K, N)], seed=1000 + t)
        acc += lf.apply_adjoint(et, 0, lf.apply_op(et, 0, Z))
    acc /= draws
    assert np.linalg.norm(acc - Z) / np.linalg.norm(Z) <= 0.1
