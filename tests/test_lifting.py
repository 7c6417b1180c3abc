import ast
import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import demix
from demix import incoherence as inc
from demix import lifting as lf
from demix.errors import ConfigError, ConvergenceError, DimensionError, SingularGramError

from _oracles import (
    ORTHO,
    REGIMES,
    STACKED_DFT,
    TALL,
    constraint_project,
    no_rows,
    pinv_solve,
    regime_ensemble,
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
    # the factored kernel against the entry-by-entry oracles
    for kwargs in (
        dict(b_kind="dft", a_kind="gaussian"),
        dict(b_kind="ortho", a_kind="gaussian"),
        dict(b_kind="dft", a_kind="hadamard"),
    ):
        e = demix.make_ensemble(64, [(5, 4), (3, 6)], seed=8, **kwargs)
        for i in range(2):
            Z = crandn(*e.dims[i])
            z = crandn(64)
            a = slow_apply_op(e.B[i], e.A[i], Z)
            b = lf.apply_op(e, i, Z)
            assert np.abs(a - b).max() < 1e-10
            a = slow_adjoint(e.B[i], e.A[i], z)
            b = lf.apply_adjoint(e, i, z)
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
    mmap = lf.MeasurementMap(e)
    lhs = mmap.mv(lf.pack(comb))
    rhs = a * mmap.mv(lf.pack(Zs)) + b * mmap.mv(lf.pack(Ws))
    assert np.abs(lhs - rhs).max() < 1e-12
    # r=1 reduces to apply_op
    e1 = demix.make_ensemble(20, [(3, 3)], seed=7)
    Z = crandn(3, 3)
    assert np.array_equal(lf.MeasurementMap(e1).mv(lf.pack([Z])), lf.apply_op(e1, 0, Z))
    # truth blocks synthesize y exactly on a noiseless instance
    assert np.abs(mmap.mv(lf.pack(lf.LiftedBlocks.from_truth(e))) - e.y).max() < 1e-12
    # adjoint gathers per-user blocks
    z = crandn(20)
    back = lf.unpack(mmap.rmv(z), e.dims)
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
    # Phi acts on packed blocks exactly like the map
    Zs = lf.LiftedBlocks([crandn(3, 3), crandn(2, 4)])
    assert np.abs(Phi @ lf.pack(Zs) - lf.MeasurementMap(e).mv(lf.pack(Zs))).max() < 1e-12
    G = lf.gram_matrix(e)
    assert np.abs(G - Phi @ Phi.conj().T).max() < 1e-10
    P = stacked_phi(e.B, e.A)
    assert np.abs(lf.MeasurementMap(e, real=True).gram() - P @ P.T).max() < 1e-10
    # the row Grams go to LAPACK F-contiguous, so xPSTRF factors them in
    # place, and exactly Hermitian
    for G in (G, lf.MeasurementMap(e, real=True).gram(), lf.stacked_gram(e)):
        assert G.flags.f_contiguous and np.array_equal(G, G.conj().T)


@pytest.mark.parametrize("real", [False, True])
def test_measurement_map_dense_and_matrix_free_agree(real):
    # the one map against the oracle matrix M (Phi, or the stacked P): its
    # products, its row Gram from the Hadamard forms, and its column Gram
    # from the Toeplitz blocks (the generic one:
    # test_dft_column_gram_matches_generic)
    e = demix.make_ensemble(80, [(4, 5), (3, 3)], seed=14)
    M = stacked_phi(e.B, e.A) if real else slow_composite_phi(e.B, e.A)
    mmap = lf.MeasurementMap(e, real=real)
    assert mmap.rows == M.shape[0]
    vec = RNG.standard_normal(e.sum_kn) if real else crandn(e.sum_kn)
    res = RNG.standard_normal(M.shape[0]) if real else crandn(M.shape[0])
    assert np.abs(mmap.mv(vec) - M @ vec).max() < 1e-12
    assert np.abs(mmap.rmv(res) - M.conj().T @ res).max() < 1e-12
    assert mmap.mv(vec).dtype == mmap.rmv(res).dtype == (float if real else complex)
    assert np.abs(mmap.gram() - M @ M.conj().T).max() < 1e-10
    col = mmap.column_gram()
    ref = np.linalg.norm(M.conj().T @ M)
    assert np.linalg.norm(col - M.conj().T @ M) <= 1e-12 * ref


def _explicit_b(L, dims, seed):
    """Explicit matrices (b_kind None) with a non-orthonormal complex B."""
    e = demix.make_ensemble(L, dims, b_kind="ortho", seed=seed)
    rng = np.random.default_rng(seed)
    return demix.from_matrices([b * (1.0 + rng.uniform(size=b.shape)) for b in e.B], e.A,
                               e.truth)


def _complex_a(L, dims, seed):
    """Partial-DFT B with an explicit complex A: every entry of the
    Gaussian A given a random phase."""
    e = demix.make_ensemble(L, dims, seed=seed)
    rng = np.random.default_rng(seed)
    A = [a * np.exp(2j * np.pi * rng.uniform(size=a.shape)) for a in e.A]
    return dataclasses.replace(demix.from_matrices(e.B, A, e.truth), b_kind="dft")


_KERNEL_CASES = {
    "dft": lambda: demix.make_ensemble(40, [(4, 5), (3, 3)], seed=2),
    "ortho": lambda: demix.make_ensemble(32, [(4, 4), (3, 6)], b_kind="ortho", seed=3),
    "explicit-b": lambda: _explicit_b(24, [(3, 4), (2, 2)], 5),
    "complex-a": lambda: _complex_a(40, [(4, 5), (3, 3)], 6),
    "r15": lambda: demix.make_ensemble(128, [(4, 3)] * 15, a_kind="hadamard", seed=4),
}


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("case", _KERNEL_CASES)
def test_map_products_match_oracle(case, real):
    # The factored kernel, A_i(Z) = rowdot(B_i, A_i Z^T) and its adjoint,
    # against the oracle matrix built row by row: complex Phi, or P = [Re
    # Phi; Im Phi] for real variables, where the held Re B_i^T and Im B_i^T
    # alone would miss the imaginary part of an explicit complex A.
    e = _KERNEL_CASES[case]()
    M = stacked_phi(e.B, e.A) if real else slow_composite_phi(e.B, e.A)
    mmap = lf.MeasurementMap(e, real=real)
    for _ in range(3):
        vec = RNG.standard_normal(e.sum_kn) if real else crandn(e.sum_kn)
        res = RNG.standard_normal(M.shape[0]) if real else crandn(M.shape[0])
        want = M @ vec
        assert np.linalg.norm(mmap.mv(vec) - want) <= 1e-12 * np.linalg.norm(want)
        want = M.conj().T @ res
        assert np.linalg.norm(mmap.rmv(res) - want) <= 1e-12 * np.linalg.norm(want)
    # the per-user operators are the same kernel
    for i, (Z, z) in enumerate(zip(lf.unpack(crandn(e.sum_kn), e.dims), crandn(e.r, e.L))):
        want = slow_apply_op(e.B[i], e.A[i], Z)
        assert np.linalg.norm(lf.apply_op(e, i, Z) - want) <= 1e-12 * np.linalg.norm(want)
        want = slow_adjoint(e.B[i], e.A[i], z)
        assert np.linalg.norm(lf.apply_adjoint(e, i, z) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("case", _KERNEL_CASES)
def test_row_gram_matches_oracle(case, real):
    # The row Gram the projector factors against the oracle M M^*: the
    # complex Hadamard sum for Phi, the real products for P, where an
    # explicit complex A adds the cross terms of (B, Re A) and (iB, Im A).
    # It reaches xPSTRF F-contiguous and exactly Hermitian.
    e = _KERNEL_CASES[case]()
    M = stacked_phi(e.B, e.A) if real else slow_composite_phi(e.B, e.A)
    want = M @ M.conj().T
    G = lf.MeasurementMap(e, real=real).gram()
    assert G.dtype == (float if real else complex)
    assert np.linalg.norm(G - want) <= 1e-12 * np.linalg.norm(want)
    assert G.flags.f_contiguous and np.array_equal(G, G.conj().T)


@pytest.mark.parametrize("real", [False, True])
def test_map_holds_no_composite_matrix(real):
    # Building the map forms no L x sum K_i N_i matrix: the complex map
    # holds nothing but offsets, the real one Re B_i^T and Im B_i^T
    # (2 L sum K_i reals).  Peaks by tracemalloc, against L sum K_i N_i
    # reals (8.4 MB here).
    e = demix.make_ensemble(700, [(30, 25)] * 2, seed=1)
    dense = e.L * e.sum_kn * 8
    tracemalloc.start()
    try:
        mmap = lf.MeasurementMap(e, real=real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 2 * e.L * sum(k for k, _ in e.dims) * 8 if real else 0
    assert mmap.rows == (2 if real else 1) * e.L and peak < held + 0.05 * dense


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


def test_lanczos_fixed_start_and_convergence_error():
    # one fixed start vector: a second matrix-free run repeats every bit
    e = demix.make_ensemble(32, [(6, 6)] * 3, seed=13)
    assert lf._gram_extremes_matfree(e) == lf._gram_extremes_matfree(e)
    # below n = 3 ARPACK cannot run; the n x n matrix is read instead
    assert lf.top_eigenvalue(lambda v: np.array([2.0, 5.0]) * v, 2, 1e-10) == 5.0
    # an unmet tolerance is a demix error, not an ARPACK one
    with pytest.raises(ConvergenceError, match="Lanczos"):
        lf._gram_extremes_matfree(e, tol=1e-14, cap=1)


def test_gram_solver_modes():
    rng = np.random.default_rng(4)
    e = demix.make_ensemble(32, [(4, 4), (3, 6)], seed=9)
    Phi = lf.composite_matrix(e)
    y = Phi @ crandn(e.sum_kn)
    w = rng.standard_normal(e.sum_kn) + 1j * rng.standard_normal(e.sum_kn)
    want = constraint_project(Phi, y, 0.0, w)
    project, path = lf.projector(lf.MeasurementMap(e), y)
    assert path == "row/chol"
    assert np.linalg.norm(project(w) - want) < 1e-10 * np.linalg.norm(want)
    # the LSQR path (forced) matches
    with pytest.MonkeyPatch.context() as mp:
        _no_assembly(mp)
        project_lsqr, path = lf.projector(lf.MeasurementMap(e), y)
    assert path == "row/lsqr"
    assert np.linalg.norm(project_lsqr(w) - want) < 1e-7
    # 6 unknowns against 24 rows: the row Gram Phi Phi^* is singular, so
    # the projector factors the 6 x 6 column Gram Phi^* Phi instead, and
    # its x0 = M^+ y solves the consistent system exactly
    e4 = demix.make_ensemble(24, [(2, 3)], seed=11)
    Phi4 = lf.composite_matrix(e4)
    truth4 = lf.pack(lf.LiftedBlocks.from_truth(e4))
    rhs4 = Phi4 @ truth4
    project, path = lf.projector(lf.MeasurementMap(e4), rhs4)
    assert path == "col/chol"
    x0 = project(crandn(6))
    assert x0.shape == (6,) and np.linalg.norm(Phi4 @ x0 - rhs4) < 1e-12
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


def _no_assembly(monkeypatch):
    """Force the row-side LSQR projection."""
    monkeypatch.setattr(lf, "_ASSEMBLE_LIMIT", 0)


def _regime(monkeypatch, name):
    """(ensemble, dense M, map, path at eta = 0, path at eta > 0) of a REGIMES entry."""
    kw, real, patches, path0, path_ball = REGIMES[name]
    e = regime_ensemble(kw)
    M = _gram_case(e, real, 0.0)[0]
    for attr, value in patches.items():
        monkeypatch.setattr(lf, attr, value)
    return e, M, lf.MeasurementMap(e, real=real), path0, path_ball


def _pivoted(mmap, y):
    """(path, rank, x0, project) of the pivoted-Cholesky affine projector
    for M x = y, built without the consistency check, so that x0 = M^+ y
    can be checked on a y off the range of M.

    rank is the numerical rank k of the factor, read off exactly, with no
    eigenvalue threshold: w -> project(w) - project(0) is I - M^* S M on
    the row side, S the solve with the leading k x k factor, whose trace
    is D - trace(S G) = D - k, and Q Q^* with Q the orthonormal null
    basis on the column side, whose trace is the null dimension D - k.
    """
    side, G, top = lf._smaller_gram(mmap)
    mode, x0, project = lf._affine_projector(mmap, side, G, top, y)
    D = mmap.ens.sum_kn
    eye = np.eye(D, dtype=mmap.dtype)
    p0 = project(np.zeros(D, dtype=mmap.dtype))
    trace = sum((project(eye[j]) - p0)[j] for j in range(D)).real
    assert abs(trace - round(trace)) <= 1e-8
    return f"{side}/{mode}", D - round(trace), x0, project


def _projector_modes():
    """Every string lifting assigns to a variable named side or mode: the
    parts of a path."""
    parts = {"side": set(), "mode": set()}
    for node in ast.walk(ast.parse(inspect.getsource(lf))):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                name = getattr(name, "id", getattr(name, "attr", None))
                if name in parts:
                    parts[name] |= {c.value for c in ast.walk(value)
                                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return parts


def test_regime_table_reaches_every_projector_path():
    # Every side/mode combination the code can return, for real and
    # complex variables, is a REGIMES entry.  LSQR serves only a row Gram
    # that is not assembled, which no column side has.
    parts = _projector_modes()
    assert parts["side"] == {"row", "col"}
    want = {(f"{side}/{mode}", real)
            for side, mode in itertools.product(parts["side"], parts["mode"] - {"lsqr"})
            for real in (False, True)}
    want |= {("row/lsqr", real) for real in (False, True)}
    got = {(path, real) for _kw, real, _lim, path0, path_ball in REGIMES.values()
           for path in (path0, path_ball)}
    assert got == want


@pytest.mark.parametrize("regime", REGIMES)
def test_projector_affine_matches_oracle(monkeypatch, regime):
    # eta = 0: the projection onto {x : M x = y} for a consistent y, and
    # x0 = M^+ y as the projection of 0
    rng = np.random.default_rng(23)
    e, M, mmap, path, _ = _regime(monkeypatch, regime)
    real = mmap.real
    y = M @ _draw(rng, M.shape[1], real)
    project, got_path = lf.projector(mmap, y)
    assert got_path == path
    w = _draw(rng, M.shape[1], real)
    x = project(w)
    want = constraint_project(M, y, 0.0, w)
    assert x.dtype == (float if real else complex)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    assert np.linalg.norm(M @ x - y) <= 1e-9 * np.linalg.norm(y)
    want = M.conj().T @ pinv_solve(M @ M.conj().T, y)
    assert np.linalg.norm(project(np.zeros_like(w)) - want) <= 1e-9 * np.linalg.norm(want)
    # a y off the range of M (rank-deficient or tall maps) is inconsistent
    if np.linalg.matrix_rank(M) < M.shape[0]:
        y_off = _draw(rng, M.shape[0], real)
        with pytest.raises(ConfigError, match="inconsistent"):
            lf.projector(mmap, y_off)
    if path.endswith("/lsqr"):
        return
    # the pivoted factor: the map's rank, and x0 = M^+ d on an arbitrary d.
    # Off the range of a row Gram with a repeated row, x0 needs the range
    # part of d; the zero rows of the stacked partial DFT need none
    d = _draw(rng, M.shape[0], real)
    got_path, rank, x0, _ = _pivoted(mmap, d)
    assert got_path == path and rank == np.linalg.matrix_rank(M)
    want = M.conj().T @ pinv_solve(M @ M.conj().T, d)
    assert np.linalg.norm(x0 - want) <= 1e-9 * np.linalg.norm(want)


# (ensemble, real, shift, mode of the eta = 0 factor), from the regime
# table: a positive shift checks the ball projection whose multiplier is
# 1/shift against the closed form (shift I + M^* M)^-1 M^* rhs.
_REGIMES = [
    (REGIMES[name][0], REGIMES[name][1], shift, REGIMES[name][3].rsplit("/", 1)[1])
    for name, shift in (("row-complex", 0.0), ("row-real", 0.0), ("col-complex", 0.0),
                        ("col-real", 0.0), ("col-real", 1.0), ("row-real-rank22", 0.0))
]


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
    side = "col" if e.sum_kn < M.shape[0] else "row"
    # a consistent right-hand side: M^* z is unique, so it matches the
    # minimum-norm oracle even where z itself is not unique
    rhs = M @ _draw(rng, M.shape[1], real) + shift * _draw(rng, M.shape[0], real)
    want = pinv_solve(G, rhs)
    scale = np.linalg.norm(M.conj().T @ want)
    # what the projector applies to 0 on either side: M^* z = M^+ rhs at
    # shift 0, and above it M^* z = (shift I + M^* M)^-1 M^* rhs, the
    # projection of 0 onto the ball {x : ||M x - rhs|| <= eta} whose radius
    # eta is that point's residual, so that its multiplier is 1/shift
    eta = np.linalg.norm(M @ (M.conj().T @ want) - rhs) if shift else 0.0
    project, path = lf.projector(mmap, rhs, eta)
    assert path == (f"{side}/{mode if shift == 0 else 'eigh'}" if assembled else "row/lsqr")
    mz = project(np.zeros(M.shape[1], dtype=mmap.dtype))
    assert mz.dtype == (float if real else complex)
    assert np.linalg.norm(mz - M.conj().T @ want) <= 1e-8 * scale
    if shift == 0:
        assert np.linalg.norm(M @ mz - rhs) <= 1e-8 * np.linalg.norm(rhs)
    # the factored Gram (M M^* on the row side, M^* M on the column side)
    # is rank-deficient exactly in mode pinv
    Gs = M @ M.conj().T if side == "row" else M.conj().T @ M
    w = np.linalg.eigvalsh(Gs)
    assert (int((w > 1e-12 * w[-1]).sum()) < len(w)) == (mode == "pinv")
    if not assembled:
        return
    # the pivoted factor of the equality path: its rank is the oracle's,
    # and its x0 = M^+ d on an arbitrary d (off the range of a
    # rank-deficient M) is the least-norm least-squares solution, which
    # needs the range part of d on the row side and of the solve's output
    # on the column side
    d = _draw(rng, M.shape[0], real)
    got_path, rank, x0, _ = _pivoted(mmap, d)
    assert got_path == f"{side}/{mode}"
    assert rank == int((w > 1e-12 * w[-1]).sum())
    want = M.conj().T @ pinv_solve(M @ M.conj().T, d)
    assert x0.dtype == (float if real else complex)
    assert np.linalg.norm(x0 - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("shift", [0.0, 1.0])
@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("duplicated", [False, True])
def test_column_gram_solver_matches_pinv_oracle(duplicated, real, explicit, shift):
    # Fewer unknowns than rows: the projector factors the column Gram
    # M^* M, built from its Toeplitz blocks when B is typed as partial DFT
    # and summed over row chunks when it is given explicitly (b_kind
    # None).  A user listed twice gives M two equal column blocks, so the
    # column Gram has half rank.
    rng = np.random.default_rng(31)
    e = demix.make_ensemble(25, [(2, 3)], seed=11)
    if duplicated:
        e = demix.from_matrices(e.B * 2, e.A * 2, e.truth * 2)
    e = dataclasses.replace(e, b_kind=None if explicit else "dft")
    D = e.sum_kn
    M, G = _gram_case(e, real, 0.0)
    Gc = M.conj().T @ M + shift * np.eye(D)
    mmap = lf.MeasurementMap(e, real=real)
    if shift:
        # the ball projection of w is (shift I + M^* M)^-1 (shift w + M^* y)
        # with multiplier 1/shift when the radius is that point's residual;
        # y is off the range of M, so the least-squares residual is positive
        y = _draw(rng, M.shape[0], real)
        w = _draw(rng, D, real)
        want = pinv_solve(Gc, shift * w + M.conj().T @ y)
        eta = np.linalg.norm(M @ want - y)
        project, path = lf.projector(mmap, y, eta)
        assert path == "col/eigh"
        x = project(w)
        assert x.dtype == (float if real else complex)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        return
    rank = 6 if duplicated else D
    assert int((np.linalg.eigvalsh(Gc) > 1e-12 * np.abs(Gc).max()).sum()) == rank
    mode = "chol" if rank == D else "pinv"
    # the least-norm step M^+ d on an arbitrary d, by the row-side oracle:
    # the projection of 0 onto the ball whose radius is d's least-squares
    # residual, less than round-off below it
    d = _draw(rng, M.shape[0], real)
    want = M.conj().T @ pinv_solve(G, d)
    ls = np.linalg.norm(M @ want - d)
    project, path = lf.projector(mmap, d, ls * (1.0 - 1e-10))
    assert path == "col/eigh"
    assert np.linalg.norm(project(np.zeros(D, dtype=mmap.dtype)) - want) \
        <= 1e-10 * np.linalg.norm(want)
    # and by the pivoted factor of the equality path, whose rank is the
    # column Gram's
    got_path, got_rank, x0, _ = _pivoted(mmap, d)
    assert got_path == "col/" + mode and got_rank == rank
    assert np.linalg.norm(x0 - want) <= 1e-10 * np.linalg.norm(want)
    # the equality projection onto {x : M x = y} for a consistent y
    y = M @ _draw(rng, D, real)
    project, path = lf.projector(mmap, y)
    assert path == "col/" + mode
    x0 = project(np.zeros(D, dtype=mmap.dtype))
    assert x0.dtype == (float if real else complex)
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
    rank = 2 * L - (2 if L % 2 == 0 else 1)
    w = np.linalg.eigvalsh(_gram_case(e, True, 0.0)[1])
    assert int((w > 1e-12 * w[-1]).sum()) == rank
    assert lf.projector(lf.MeasurementMap(e, real=True), np.zeros(2 * L))[1] == "row/pinv"
    assert _pivoted(lf.MeasurementMap(e, real=True), np.zeros(2 * L))[:2] == ("row/pinv", rank)
    # the complex Gram of the same map keeps full rank
    assert lf.projector(lf.MeasurementMap(e), np.zeros(L))[1] == "row/chol"
    assert _pivoted(lf.MeasurementMap(e), np.zeros(L))[:2] == ("row/chol", L)


@pytest.mark.parametrize("dims,rank", [([(6, 6), (5, 6)], 62), ([(4, 4)], 16)])
def test_gram_solver_ball_snap_matches_oracle(monkeypatch, dims, rank):
    # The least-norm step g = P^+ d = P^T G^+ d for a noisy d = P z - y,
    # which has a part no real estimate can reach: the noise on the two
    # vanishing imaginary rows (sum K_i N_i >= 2L), or on the whole
    # complement of a thin P.  It is the projection of 0 onto the ball
    # around d whose radius is the least-squares residual (less round-off),
    # e = 0 in the projector.  It is also x0 = P^+ d of the equality
    # path's pivoted factor, the consistency probe of every equality
    # solve.  The pivoted and the spectral factor of the smaller Gram
    # (P P^T with rank 62 < 64 rows; P^T P, 16 x 16 and nonsingular, for
    # the thin P), LSQR through the map and the eigh oracle
    # agree to round-off.
    rng = np.random.default_rng(8)
    e = demix.make_ensemble(32, dims, eta=0.1, seed=21)
    P, G = _gram_case(e, True, 0.0)
    w = np.linalg.eigvalsh(G if P.shape[0] <= P.shape[1] else P.T @ P)
    assert int((w > 1e-12 * w[-1]).sum()) == rank
    d = P @ rng.standard_normal(e.sum_kn) - np.concatenate([e.y.real, e.y.imag])
    want = P.T @ pinv_solve(G, d)
    ls = np.linalg.norm(P @ want - d)
    zero = np.zeros(e.sum_kn)
    thin = rank == e.sum_kn
    path, got_rank, x0, _ = _pivoted(lf.MeasurementMap(e, real=True), d)
    assert path == ("col/chol" if thin else "row/pinv")
    assert got_rank == rank
    project, path = lf.projector(lf.MeasurementMap(e, real=True), d, ls * (1.0 - 1e-10))
    assert path == ("col/eigh" if thin else "row/eigh")
    for g in (x0, project(zero)):
        assert np.linalg.norm(g - want) <= 1e-10 * np.linalg.norm(want)
        assert np.linalg.norm(P @ g - G @ pinv_solve(G, d)) <= 1e-10 * np.linalg.norm(d)
        if thin:
            # the noise leaves part of d outside the range of the thin P,
            # and the column side reaches the least-squares step without
            # a range projection of d
            assert np.linalg.norm(P @ g - d) > 1e-3 * np.linalg.norm(d)
    _no_assembly(monkeypatch)
    project, path = lf.projector(lf.MeasurementMap(e, real=True), d, ls * (1.0 - 1e-10))
    assert path == "row/lsqr"
    assert np.linalg.norm(project(zero) - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("regime", REGIMES)
def test_ball_projector_matches_oracle(monkeypatch, regime):
    # eta > 0: a radius 30% of the way from the least-squares residual to
    # the residual of the projected point
    rng = np.random.default_rng(41)
    e, M, mmap, _, path = _regime(monkeypatch, regime)
    real = mmap.real
    y = _draw(rng, M.shape[0], real)
    x_ls = np.linalg.lstsq(M, y, rcond=None)[0]
    ls = np.linalg.norm(M @ x_ls - y)
    w = _draw(rng, M.shape[1], real)
    eta = ls + 0.3 * (np.linalg.norm(M @ w - y) - ls)
    project, got_path = lf.projector(mmap, y, eta)
    assert got_path == path
    # a point outside lands on the boundary, at the oracle's point
    x = project(w)
    want = constraint_project(M, y, eta, w)
    assert x.dtype == (float if real else complex)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    assert abs(np.linalg.norm(M @ x - y) - eta) <= 1e-10 * eta
    # a point inside, such as the least-squares solution, is returned
    # unchanged
    assert project(x_ls) is x_ls
    if ls > 1e-8:
        # a radius below the least-squares residual misses the range
        with pytest.raises(ConfigError, match="misses the range"):
            lf.projector(mmap, y, 0.5 * ls)
    else:
        # a map of full row rank reaches every y: radius 0, or one below
        # the round-off residual, is the affine set {x : M x = y}
        want = constraint_project(M, y, 0.0, w)
        for radius in (0.0, 0.5 * ls):
            x = lf.projector(mmap, y, radius)[0](w)
            assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
            assert np.linalg.norm(M @ x - y) <= 1e-9 * np.linalg.norm(y)


@pytest.mark.parametrize("kw", [ORTHO, STACKED_DFT, TALL])
def test_stacked_gram_matches_dense(kw):
    e = demix.make_ensemble(**kw)
    P = _gram_case(e, True, 0.0)[0]
    G = lf.stacked_gram(e)
    assert np.linalg.norm(G - P @ P.T) <= 1e-12 * np.linalg.norm(P @ P.T)


# (L, dims): r = 1, 2 and 3, even and odd L, unequal K_i and N_i (cross
# blocks with K_i != K_j), and K_i = L
_DFT_COLUMN_CASES = [
    (24, [(2, 3)]),
    (25, [(2, 3), (5, 1)]),
    (12, [(12, 2), (3, 3), (1, 4)]),
    (31, [(4, 2), (2, 5), (3, 3)]),
]


@pytest.mark.parametrize("complex_a", [False, True])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("L,dims", _DFT_COLUMN_CASES)
def test_dft_column_gram_matches_generic(L, dims, real, complex_a):
    # The Toeplitz-block column Gram of a partial-DFT map against the
    # generic one of the same matrices given explicitly (b_kind None), the
    # sum over row chunks, and against the dense oracle M^* M.  An explicit
    # complex A takes the complex Fourier matrix under real variables too.
    e = _complex_a(L, dims, L) if complex_a else demix.make_ensemble(L, dims, seed=L)
    explicit = dataclasses.replace(e, b_kind=None)
    M = _gram_case(e, real, 0.0)[0]
    want = M.conj().T @ M
    G = lf.MeasurementMap(e, real=real).column_gram()
    assert G.dtype == (float if real else complex) and G.flags.f_contiguous
    ref = np.linalg.norm(want)
    assert np.linalg.norm(G - want) <= 1e-12 * ref
    generic = lf.MeasurementMap(explicit, real=real).column_gram()
    assert np.linalg.norm(G - generic) <= 1e-12 * ref


@pytest.mark.parametrize("real", [False, True])
def test_dft_column_gram_never_builds_rows(monkeypatch, real):
    # the structured path forms no row of Phi
    e = demix.make_ensemble(40, [(3, 4), (2, 2)], seed=5)
    monkeypatch.setattr(lf, "composite_matrix", no_rows)
    assert lf.MeasurementMap(e, real=real).column_gram().shape == (e.sum_kn, e.sum_kn)


def test_gram_memory_and_in_place_factor():
    # The real row Gram of the map (2L = 1024 rows, rank 1022):
    # stacked_gram sums real L x L products into the one 2L x 2L array,
    # and xPSTRF factors it in place, which then becomes [U11 0; 0 I] with
    # no copy of its leading block.  Peaks in units of the Gram's bytes,
    # by tracemalloc: about 1.58 (the Gram, two L x L products and real
    # copies of B and A) and 0.05 (the null basis).
    e = demix.make_ensemble(512, [(64, 64)], seed=1)
    mmap = lf.MeasurementMap(e, real=True)
    y = np.concatenate([e.y.real, e.y.imag])
    tracemalloc.start()
    try:
        G = mmap.gram()
        gram_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        mode = lf._affine_projector(mmap, "row", G, float(G.diagonal().max()), y)[0]
        factor_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert mode == "pinv"
    assert gram_peak <= 2.0 * G.nbytes
    assert factor_peak <= 0.25 * G.nbytes
    # the Gram is the oracle's P P^T, exactly symmetric, and the factor in
    # place is the factor of a copy
    P = stacked_phi(e.B, e.A)
    want = P @ P.T
    G = lf.stacked_gram(e)
    assert G.flags.f_contiguous and np.array_equal(G, G.T)
    assert np.linalg.norm(G - want) <= 1e-12 * np.linalg.norm(want)
    kept = G.copy()
    top = float(G.diagonal().max())
    w = RNG.standard_normal(e.sum_kn)
    copied = lf._affine_projector(mmap, "row", np.ascontiguousarray(G), top, y)
    in_place = lf._affine_projector(mmap, "row", G, top, y)
    assert np.array_equal(in_place[1], copied[1])
    assert np.array_equal(in_place[2](w), copied[2](w))
    assert not np.array_equal(G, kept)  # overwritten by the factor


def test_gram_solver_zero_map():
    # an all-zero map has rank 0: no right-hand side has a part in range
    e = demix.from_matrices(
        [np.zeros((8, 2), dtype=complex)], [np.zeros((8, 2))], [(np.ones(2), np.ones(2))]
    )
    for real in (False, True):
        mmap = lf.MeasurementMap(e, real=real)
        w = np.arange(1.0, e.sum_kn + 1.0)
        # M^+ of anything is 0, and the zero observation's feasible set is
        # the whole space
        project, path = lf.projector(mmap, np.zeros(mmap.rows))
        assert path == "col/pinv"
        assert not project(np.zeros(e.sum_kn)).any()
        assert np.linalg.norm(project(w) - w) <= 1e-15 * np.linalg.norm(w)
        # every x has residual ||y||: a ball of that radius or larger holds
        # them all, a smaller one misses the range
        y = np.ones(mmap.rows)
        for radius in (1.0, 1.5):
            project, path = lf.projector(mmap, y, radius * np.linalg.norm(y))
            assert path == "col/eigh" and project(w) is w
        with pytest.raises(ConfigError, match="misses the range"):
            lf.projector(mmap, y, 0.5 * np.linalg.norm(y))


def test_gram_solver_rejects_non_finite_matrices():
    e = demix.make_ensemble(16, [(3, 3)], seed=2)
    e.A[0][4, 1] = np.nan
    for real in (False, True):
        mmap = lf.MeasurementMap(e, real=real)
        with pytest.raises(ConfigError):
            lf.projector(mmap, np.zeros(mmap.rows))


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
