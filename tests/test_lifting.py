import numpy as np
import pytest

import demix
from demix import incoherence as inc
from demix import lifting as lf
from demix.errors import ConfigError, DimensionError, SingularGramError

from _oracles import (
    ball_project,
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
    # solve applies the inverse
    rhs = crandn(3)
    assert np.abs(g.T @ g.solve(rhs) - rhs).max() < 1e-12
    assert np.abs(g.solve(np.eye(3)) - np.linalg.inv(g.T)).max() < 1e-10
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
    assert np.abs(lf.MeasurementMap(e, real=True).gram() - P @ P.T).max() < 1e-10


@pytest.mark.parametrize("real", [False, True])
def test_measurement_map_dense_and_matrix_free_agree(monkeypatch, real):
    # the dense map holds Phi (or the stacked P) itself; with the entry
    # limit at 0 the same products run through the FFT operators
    e = demix.make_ensemble(80, [(4, 5), (3, 3)], seed=14)
    M = stacked_phi(e.B, e.A) if real else slow_composite_phi(e.B, e.A)
    dense = lf.MeasurementMap(e, real=real)
    monkeypatch.setattr(lf, "_DENSE_ENTRY_LIMIT", 0)
    free = lf.MeasurementMap(e, real=real)
    assert dense.M is not None and free.M is None
    assert dense.rows == free.rows == M.shape[0]
    vec = RNG.standard_normal(e.sum_kn) if real else crandn(e.sum_kn)
    res = RNG.standard_normal(M.shape[0]) if real else crandn(M.shape[0])
    for mmap in (dense, free):
        assert np.abs(mmap.mv(vec) - M @ vec).max() < 1e-12
        assert np.abs(mmap.rmv(res) - M.conj().T @ res).max() < 1e-12
        assert mmap.rmv(res).dtype == (float if real else complex)
    # the real Gram is assembled only alongside a dense P; the complex one
    # by its Hadamard form whatever the entry limit
    assert np.abs(dense.gram() - M @ M.conj().T).max() < 1e-10
    assert (free.gram() is None) == real
    # the column Gram M^* M: dense from M, matrix-free summed over chunks
    # of rows (29 unknowns: neither 14 nor 29 divides L = 80)
    col = dense.column_gram()
    ref = np.linalg.norm(col)
    assert np.linalg.norm(col - M.conj().T @ M) <= 1e-12 * ref
    assert np.linalg.norm(free.column_gram() - col) <= 1e-12 * ref


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
    gs = lf.GramSolver(lf.MeasurementMap(e))
    assert gs._mode == "chol"
    assert np.linalg.norm(G @ gs.solve(rhs) - rhs) < 1e-10 * np.linalg.norm(rhs)
    # conjugate-gradient path (forced) matches
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lf, "_ASSEMBLE_LIMIT", 0)
        gs_cg = lf.GramSolver(lf.MeasurementMap(e))
    assert gs_cg._mode == "cg"
    assert np.linalg.norm(gs_cg.solve(rhs) - gs.solve(rhs)) < 1e-7
    # 6 unknowns against 24 rows: the row Gram Phi Phi^* is singular, so
    # the solver factors the 6 x 6 column Gram Phi^* Phi instead, and the
    # equality probe's M^+ y solves the consistent system exactly
    e4 = demix.make_ensemble(24, [(2, 3)], seed=11)
    Phi4 = lf.composite_matrix(e4)
    gs_p = lf.GramSolver(lf.MeasurementMap(e4))
    assert gs_p.path == "dense/col/chol" and gs_p.size == 6
    truth4 = lf.pack(lf.LiftedBlocks.from_truth(e4))
    rhs4 = Phi4 @ truth4
    x0, project = gs_p.projector(rhs4)
    assert np.linalg.norm(Phi4 @ x0 - rhs4) < 1e-12
    # injective: the feasible set is the one point x0, whatever is projected
    assert project(crandn(6)) is x0
    assert np.linalg.norm(x0 - truth4) < 1e-12


def _gram_case(e, real, shift):
    """Dense map M (Phi, or the stacked P) and the matrix shift*I + M M^*."""
    M = stacked_phi(e.B, e.A) if real else slow_composite_phi(e.B, e.A)
    return M, M @ M.conj().T + shift * np.eye(M.shape[0])


def _draw(rng, shape, real):
    z = rng.standard_normal(shape)
    return z if real else z + 1j * rng.standard_normal(shape)


# (ensemble, real, shift, mode when factored): the solver factors the
# smaller Gram, M M^* (side "row") or M^* M (side "col", sum K_i N_i below
# the row count); a positive shift checks the ball projection whose
# multiplier is 1/shift.  Generic orthonormal B has no real rows, so the
# row Gram of a map with sum K_i N_i >= the row count has full rank, and
# so does the column Gram below it.  With partial-DFT B and sum K_i N_i >= 2L the
# stacked row Gram loses the imaginary parts of the real DFT rows l = L
# and L/2.
_REGIMES = [
    (dict(L=16, dims=[(4, 5), (4, 5)], b_kind="ortho", seed=3), False, 0.0, "chol"),
    (dict(L=16, dims=[(4, 5), (4, 5)], b_kind="ortho", seed=3), True, 0.0, "chol"),
    (dict(L=24, dims=[(2, 3)], seed=11), False, 0.0, "chol"),
    (dict(L=24, dims=[(2, 3)], seed=11), True, 0.0, "chol"),
    (dict(L=24, dims=[(2, 3)], seed=11), True, 1.0, "chol"),
    (dict(L=12, dims=[(4, 4), (3, 3)], seed=12), True, 0.0, "pinv"),
]


def _no_assembly(monkeypatch):
    """Force the matrix-free map and the row-side CG Gram solve."""
    monkeypatch.setattr(lf, "_DENSE_ENTRY_LIMIT", 0)
    monkeypatch.setattr(lf, "_ASSEMBLE_LIMIT", 0)


@pytest.mark.parametrize("kw,real,shift,mode", _REGIMES)
@pytest.mark.parametrize("assembled", [True, False])
def test_gram_solver_regimes_match_pinv_oracle(monkeypatch, kw, real, shift, mode,
                                               assembled):
    rng = np.random.default_rng(17)
    e = demix.make_ensemble(**kw)
    M, G = _gram_case(e, real, shift)
    if not assembled:
        _no_assembly(monkeypatch)
    mmap = lf.MeasurementMap(e, real=real)
    gs = lf.GramSolver(mmap)
    side = "col" if e.sum_kn < M.shape[0] else "row"
    assert gs.path == (f"dense/{side}/{mode}" if assembled else "matfree/row/cg")
    # a consistent right-hand side: M^* z is unique, so it matches the
    # minimum-norm oracle even where z itself is not unique
    rhs = M @ _draw(rng, M.shape[1], real) + shift * _draw(rng, M.shape[0], real)
    want = pinv_solve(G, rhs)
    scale = np.linalg.norm(M.conj().T @ want)
    if gs.side == "row" and shift == 0:
        z = gs.solve(rhs)
        assert z.dtype == (float if real else complex)
        assert np.linalg.norm(M.conj().T @ (z - want)) <= 1e-8 * scale
        assert np.linalg.norm(G @ z - rhs) <= 1e-8 * np.linalg.norm(rhs)
        if gs._mode == "chol":
            assert np.linalg.norm(z - want) <= 1e-9 * np.linalg.norm(want)
    # what the solver applies on either side: M^* z = M^+ rhs at shift 0,
    # and above it M^* z = (shift I + M^* M)^-1 M^* rhs, the projection of
    # 0 onto the ball {x : ||M x - rhs|| <= eta} whose radius eta is that
    # point's residual, so that its multiplier is 1/shift
    if shift == 0:
        mz = gs.min_norm(rhs)
        assert np.linalg.norm(M @ mz - rhs) <= 1e-8 * np.linalg.norm(rhs)
    else:
        eta = np.linalg.norm(M @ (M.conj().T @ want) - rhs)
        project, path = lf.ball_projector(mmap, rhs, eta)
        assert path == (f"dense/{side}/eigh" if assembled else "matfree/row/lsqr")
        mz = project(np.zeros(M.shape[1], dtype=mmap.dtype))
    assert mz.dtype == (float if real else complex)
    assert np.linalg.norm(mz - M.conj().T @ want) <= 1e-8 * scale
    # the range part of an arbitrary vector is G G^+ d; identity at full
    # rank (the factored Gram: M M^* on the row side, M^* M on the column
    # side)
    Gs = M @ M.conj().T if gs.side == "row" else M.conj().T @ M
    d = _draw(rng, gs.size, real)
    if gs._mode == "pinv":
        w = np.linalg.eigvalsh(Gs)
        assert gs.rank == int((w > 1e-12 * w[-1]).sum()) < gs.size
        want_r = Gs @ pinv_solve(Gs, d)
        assert np.linalg.norm(gs.range_part(d) - want_r) <= 1e-10 * np.linalg.norm(d)
    else:
        assert gs.range_part(d) is d


@pytest.mark.parametrize("shift", [0.0, 1.0])
@pytest.mark.parametrize("matrix_free", [False, True])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("duplicated", [False, True])
def test_column_gram_solver_matches_pinv_oracle(monkeypatch, duplicated, real,
                                                matrix_free, shift):
    # Fewer unknowns than rows: the solver factors the column Gram
    # M^* M.  A user listed twice gives M two equal column blocks, so the
    # column Gram has half rank.
    rng = np.random.default_rng(31)
    e = demix.make_ensemble(25, [(2, 3)], seed=11)
    if duplicated:
        e = demix.from_matrices(e.B * 2, e.A * 2, e.truth * 2)
    D = e.sum_kn
    M, G = _gram_case(e, real, 0.0)
    Gc = M.conj().T @ M + shift * np.eye(D)
    if matrix_free:
        monkeypatch.setattr(lf, "_DENSE_ENTRY_LIMIT", 0)
    mmap = lf.MeasurementMap(e, real=real)
    prefix = "matfree" if matrix_free else "dense"
    if shift:
        # the ball projection of w is (shift I + M^* M)^-1 (shift w + M^* y)
        # with multiplier 1/shift when the radius is that point's residual;
        # y is off the range of M, so the least-squares residual is positive
        y = _draw(rng, M.shape[0], real)
        w = _draw(rng, D, real)
        want = pinv_solve(Gc, shift * w + M.conj().T @ y)
        eta = np.linalg.norm(M @ want - y)
        project, path = lf.ball_projector(mmap, y, eta)
        assert path == prefix + "/col/eigh"
        x = project(w)
        assert x.dtype == (float if real else complex)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        return
    gs = lf.GramSolver(mmap)
    rank = 6 if duplicated else D
    mode = "chol" if rank == D else "pinv"
    assert gs.path == prefix + "/col/" + mode
    assert gs.size == D and gs.rank == rank
    # solve is exact on the range of the column Gram; its range part is
    # the minimum-norm solution
    b = Gc @ _draw(rng, D, real)
    x = gs.solve(b)
    assert x.dtype == (float if real else complex)
    want = pinv_solve(Gc, b)
    assert np.linalg.norm(Gc @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(gs.range_part(x) - want) <= 1e-10 * np.linalg.norm(want)
    # the least-norm step M^+ d on an arbitrary d, by the row-side oracle
    d = _draw(rng, M.shape[0], real)
    want = M.conj().T @ pinv_solve(G, d)
    assert np.linalg.norm(gs.min_norm(d) - want) <= 1e-10 * np.linalg.norm(want)
    # the equality projection onto {x : M x = y} for a consistent y
    y = M @ _draw(rng, D, real)
    x0, project = gs.projector(y)
    want = M.conj().T @ pinv_solve(G, y)
    assert np.linalg.norm(x0 - want) <= 1e-10 * np.linalg.norm(want)
    v = _draw(rng, D, real)
    want = v - M.conj().T @ pinv_solve(G, M @ v - y)
    assert np.linalg.norm(project(v) - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(M @ project(v) - y) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("L", [24, 25])
def test_stacked_partial_dft_structural_rank(L):
    # Rows l = L (and l = L/2 for even L) of a partial DFT are real, so the
    # matching imaginary rows of P vanish: rank 2L-2 for even L, 2L-1 for
    # odd L, however many unknowns there are.
    e = demix.make_ensemble(L, [(6, 6), (6, 6)], seed=L)
    assert e.sum_kn >= 2 * L
    gs = lf.GramSolver(lf.MeasurementMap(e, real=True))
    assert gs._mode == "pinv"
    assert gs.rank == 2 * L - (2 if L % 2 == 0 else 1)
    w = np.linalg.eigvalsh(_gram_case(e, True, 0.0)[1])
    assert int((w > 1e-12 * w[-1]).sum()) == gs.rank
    # the complex Gram of the same map keeps full rank
    assert lf.GramSolver(lf.MeasurementMap(e))._mode == "chol"


@pytest.mark.parametrize("dims,rank", [([(6, 6), (5, 6)], 62), ([(4, 4)], 16)])
def test_gram_solver_ball_snap_matches_oracle(monkeypatch, dims, rank):
    # min_norm gives the least-norm step g = P^+ d = P^T G^+ d for a noisy
    # d = P z - y, which has a part no real estimate can reach: the noise
    # on the two vanishing imaginary rows (sum K_i N_i >= 2L), or on the
    # whole complement of a thin P.  The equality probe and the matrix-free
    # ball projection take this step on y.  The pivoted factor of the smaller
    # Gram (P P^T with rank 62 < 64 rows; P^T P, 16 x 16 and nonsingular,
    # for the thin P), LSQR through the matrix-free map and the eigh
    # oracle agree to round-off.
    rng = np.random.default_rng(8)
    e = demix.make_ensemble(32, dims, eta=0.1, seed=21)
    P, G = _gram_case(e, True, 0.0)
    d = P @ rng.standard_normal(e.sum_kn) - np.concatenate([e.y.real, e.y.imag])
    gs = lf.GramSolver(lf.MeasurementMap(e, real=True))
    thin = rank == e.sum_kn
    assert gs.path == ("dense/col/chol" if thin else "dense/row/pinv")
    assert gs.rank == rank
    g = gs.min_norm(d)
    want = P.T @ pinv_solve(G, d)
    assert np.linalg.norm(g - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(P @ g - G @ pinv_solve(G, d)) <= 1e-10 * np.linalg.norm(d)
    if thin:
        # the noise leaves part of d outside the range of the thin P, and
        # the column side reaches the least-squares step without a range
        # projection of d
        assert np.linalg.norm(P @ g - d) > 1e-3 * np.linalg.norm(d)
    _no_assembly(monkeypatch)
    gs_cg = lf.GramSolver(lf.MeasurementMap(e, real=True))
    assert gs_cg._mode == "cg"
    assert np.linalg.norm(gs_cg.min_norm(d) - want) <= 1e-10 * np.linalg.norm(want)


# (ensemble, real, limits forced to 0, path): each side of
# ball_projector's eigh, a rank-deficient map on either side (the stacked
# partial-DFT row Gram of rank 22 < 24, a duplicated user's column Gram of
# rank 6 < 12) and the matrix-free fallbacks.
_ORTHO = dict(L=16, dims=[(4, 5), (4, 5)], b_kind="ortho", seed=3)
_STACKED_DFT = dict(L=12, dims=[(4, 4), (3, 3)], seed=12)
_TALL = dict(L=24, dims=[(2, 3)], seed=11)
_DENSE = ()
_MATFREE = ("_DENSE_ENTRY_LIMIT",)
_NO_GRAM = ("_DENSE_ENTRY_LIMIT", "_ASSEMBLE_LIMIT")
_BALL_CASES = [
    pytest.param(_ORTHO, False, _DENSE, "dense/row/eigh", id="row-complex"),
    pytest.param(_ORTHO, True, _DENSE, "dense/row/eigh", id="row-real"),
    pytest.param(_STACKED_DFT, True, _DENSE, "dense/row/eigh", id="row-real-rank22"),
    pytest.param(_TALL, False, _DENSE, "dense/col/eigh", id="col-complex"),
    pytest.param(_TALL, True, _DENSE, "dense/col/eigh", id="col-real"),
    pytest.param("duplicated", True, _DENSE, "dense/col/eigh", id="col-real-duplicated"),
    pytest.param("duplicated", False, _MATFREE, "matfree/col/eigh",
                 id="matfree-col-complex-duplicated"),
    pytest.param(_ORTHO, False, _MATFREE, "matfree/row/eigh", id="matfree-row-complex"),
    pytest.param(_ORTHO, True, _MATFREE, "matfree/row/eigh", id="matfree-row-real"),
    pytest.param(_STACKED_DFT, True, _MATFREE, "matfree/row/eigh",
                 id="matfree-row-real-rank22"),
    pytest.param(_ORTHO, False, _NO_GRAM, "matfree/row/lsqr", id="lsqr-complex-full-rank"),
    pytest.param(_STACKED_DFT, True, _NO_GRAM, "matfree/row/lsqr", id="lsqr-real-rank22"),
    pytest.param(_TALL, False, _NO_GRAM, "matfree/row/lsqr", id="lsqr-complex-tall"),
]


@pytest.mark.parametrize("kw,real,limits,path", _BALL_CASES)
def test_ball_projector_matches_oracle(monkeypatch, kw, real, limits, path):
    rng = np.random.default_rng(41)
    if kw == "duplicated":
        e = demix.make_ensemble(25, [(2, 3)], seed=11)
        e = demix.from_matrices(e.B * 2, e.A * 2, e.truth * 2)
    else:
        e = demix.make_ensemble(**kw)
    M = _gram_case(e, real, 0.0)[0]
    for name in limits:
        monkeypatch.setattr(lf, name, 0)
    mmap = lf.MeasurementMap(e, real=real)
    y = _draw(rng, M.shape[0], real)
    x_ls = np.linalg.lstsq(M, y, rcond=None)[0]
    ls = np.linalg.norm(M @ x_ls - y)
    w = _draw(rng, M.shape[1], real)
    eta = ls + 0.3 * (np.linalg.norm(M @ w - y) - ls)
    project, got_path = lf.ball_projector(mmap, y, eta)
    assert got_path == path
    # a point outside lands on the boundary, at the oracle's point
    x = project(w)
    want = ball_project(M, y, eta, w)
    assert x.dtype == (float if real else complex)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    assert abs(np.linalg.norm(M @ x - y) - eta) <= 1e-10 * eta
    # a point inside, such as the least-squares solution, is returned
    # unchanged
    assert project(x_ls) is x_ls
    if ls > 1e-8:
        # a radius below the least-squares residual misses the range
        with pytest.raises(ConfigError, match="misses the range"):
            lf.ball_projector(mmap, y, 0.5 * ls)
    else:
        # a map of full row rank reaches every y: radius 0, or one below
        # the round-off residual, is the affine set {x : M x = y}
        want = w - np.linalg.lstsq(M, M @ w - y, rcond=None)[0]
        for radius in (0.0, 0.5 * ls):
            x = lf.ball_projector(mmap, y, radius)[0](w)
            assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
            assert np.linalg.norm(M @ x - y) <= 1e-9 * np.linalg.norm(y)


@pytest.mark.parametrize("kw", [_ORTHO, _STACKED_DFT, _TALL])
def test_stacked_gram_matches_dense(kw):
    e = demix.make_ensemble(**kw)
    P = _gram_case(e, True, 0.0)[0]
    G = lf.stacked_gram(e)
    assert np.linalg.norm(G - P @ P.T) <= 1e-12 * np.linalg.norm(P @ P.T)


def test_gram_solver_zero_map():
    # an all-zero map has rank 0: no right-hand side has a part in range
    e = demix.from_matrices(
        [np.zeros((8, 2), dtype=complex)], [np.zeros((8, 2))], [(np.ones(2), np.ones(2))]
    )
    for real in (False, True):
        mmap = lf.MeasurementMap(e, real=real)
        gs = lf.GramSolver(mmap)
        assert gs.path == "dense/col/pinv" and gs.rank == 0
        d = np.ones(gs.size)
        assert not gs.solve(d).any() and not gs.range_part(d).any()
        # the solver's operations: M^+ of anything is 0, and the zero
        # observation's feasible set is the whole space
        assert not gs.min_norm(np.ones(mmap.rows)).any()
        x0, project = gs.projector(np.zeros(mmap.rows))
        w = np.arange(1.0, gs.size + 1.0)
        assert not x0.any() and np.linalg.norm(project(w) - w) <= 1e-15 * np.linalg.norm(w)
        # every x has residual ||y||: a larger ball holds them all, a
        # smaller one misses the range
        y = np.ones(mmap.rows)
        project, path = lf.ball_projector(mmap, y, 1.5 * np.linalg.norm(y))
        assert path == "dense/col/eigh" and project(w) is w
        with pytest.raises(ConfigError, match="misses the range"):
            lf.ball_projector(mmap, y, 0.5 * np.linalg.norm(y))


def test_gram_solver_rejects_non_finite_matrices():
    e = demix.make_ensemble(16, [(3, 3)], seed=2)
    e.A[0][4, 1] = np.nan
    for real in (False, True):
        with pytest.raises(ConfigError):
            lf.GramSolver(lf.MeasurementMap(e, real=real))


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
