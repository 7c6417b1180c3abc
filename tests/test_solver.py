import math

import numpy as np
import pytest

import demix
from demix import lifting as lf
from demix import solver as sv
from demix.errors import ConfigError, DimensionError
from demix.lifting import LiftedBlocks, composite_matrix, pack

RNG = np.random.default_rng(20240607)


def crandn(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def _nuc(M):
    return float(np.linalg.svd(M, compute_uv=False).sum())


def test_svt_examples():
    out = sv.svt(np.diag([3.0, 1.0]), 2.0)
    assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12
    M = crandn(4, 3)
    assert np.abs(sv.svt(M, 0.0) - M).max() == 0.0
    # everything below the threshold collapses to zero
    big = np.linalg.svd(M, compute_uv=False)[0]
    assert np.abs(sv.svt(M, big + 1.0)).max() < 1e-12
    with pytest.raises(ConfigError):
        sv.svt(M, -0.5)


def test_svt_two_by_two_closed_form():
    # independent singular values for 2x2 blocks: with t = ||M||_F^2 and
    # p = |det M|, sigma^2 = (t +- sqrt(t^2 - 4 p^2)) / 2
    for _ in range(25):
        M = RNG.standard_normal((2, 2))
        tau = float(RNG.uniform(0.0, 2.0))
        t = float((M * M).sum())
        p = abs(float(np.linalg.det(M)))
        disc = math.sqrt(max(t * t - 4.0 * p * p, 0.0))
        sig = np.array([math.sqrt((t + disc) / 2.0), math.sqrt(max((t - disc) / 2.0, 0.0))])
        want = np.maximum(sig - tau, 0.0)
        got = np.linalg.svd(sv.svt(M, tau), compute_uv=False)
        assert np.abs(np.sort(got)[::-1] - want).max() < 1e-10


def test_svt_prox_optimality():
    # svt(M, tau) minimizes tau*||X||_* + 0.5*||X - M||_F^2; any
    # perturbation must not decrease the objective (convexity makes the
    # local check global).
    M = crandn(4, 3)
    tau = 0.5
    X = sv.svt(M, tau)

    def F(Z):
        return tau * _nuc(Z) + 0.5 * float(np.linalg.norm(Z - M) ** 2)

    base = F(X)
    for _ in range(40):
        D = crandn(4, 3)
        D /= np.linalg.norm(D)
        for eps in (1e-2, 1e-3):
            assert F(X + eps * D) >= base - 1e-10


def test_nuclear_norm():
    assert abs(sv.nuclear_norm(np.diag([3.0, 1.0, 0.5])) - 4.5) < 1e-12
    M = crandn(5, 4)
    assert abs(sv.nuclear_norm(M) - np.linalg.svd(M, compute_uv=False).sum()) < 1e-12


def test_extract_rank1_examples():
    X = np.zeros((3, 3))
    X[0, 0] = 2.0
    h, x, s1, gap = sv.extract_rank1(X)
    assert abs(s1 - 2.0) < 1e-12 and gap == 0.0
    assert np.abs(h - math.sqrt(2.0) * np.eye(3)[0]).max() < 1e-12
    assert np.abs(x - math.sqrt(2.0) * np.eye(3)[0]).max() < 1e-12

    h0, x0 = crandn(6), crandn(5)
    X = np.outer(h0, x0.conj())
    h, x, s1, gap = sv.extract_rank1(X)
    assert np.abs(np.outer(h, x.conj()) - X).max() < 1e-12
    assert gap < 1e-12
    # phase convention: largest-magnitude entry of h is real positive
    j = int(np.argmax(np.abs(h)))
    assert abs(h[j].imag) < 1e-12 and h[j].real > 0

    hz, xz, sz, gz = sv.extract_rank1(np.zeros((4, 2)))
    assert np.all(hz == 0) and np.all(xz == 0) and sz == 0.0 and gz == 0.0


def test_extract_rank1_perturbation():
    h0, x0 = crandn(8), crandn(8)
    X0 = np.outer(h0, x0.conj())
    X0 /= np.linalg.norm(X0)
    E = crandn(8, 8)
    E /= np.linalg.norm(E)
    h, x, _s1, gap = sv.extract_rank1(X0 + 0.01 * E)
    assert np.linalg.norm(np.outer(h, x.conj()) - X0) <= 0.05
    assert gap <= 0.05


def test_align_scaled_truth():
    truth = [(crandn(4), crandn(3)), (crandn(5), crandn(5))]
    est = LiftedBlocks(
        [np.outer(2.0 * h, np.conj(x / 2.0)) for h, x in truth]
    )
    per_user, rel = sv.align_and_score(truth, est)
    assert rel < 1e-12
    for h_err, x_err, c in per_user:
        assert h_err < 1e-10 and x_err < 1e-10
        assert c != 0
    # complex per-user scaling is also removed exactly: the lifted matrix
    # is invariant under (h, x) -> (a*h, x/conj(a))
    h0, x0 = crandn(6), crandn(4)
    a = 0.7 - 1.3j
    est2 = [np.outer(a * h0, np.conj(x0 / np.conj(a)))]
    per2, rel2 = sv.align_and_score([(h0, x0)], est2)
    assert rel2 < 1e-12
    assert per2[0][0] < 1e-10 and per2[0][1] < 1e-10


def test_align_delta_perturbation():
    truth = [(crandn(4), crandn(4)), (crandn(3), crandn(5))]
    mats = [np.outer(h, np.conj(x)) for h, x in truth]
    deltas = [crandn(4, 4), crandn(3, 5)]
    total = math.sqrt(sum(np.linalg.norm(d) ** 2 for d in deltas))
    delta = 0.37
    est = [M + (delta / total) * d for M, d in zip(mats, deltas)]
    _per, rel = sv.align_and_score(truth, est)
    denom = math.sqrt(sum(np.linalg.norm(M) ** 2 for M in mats))
    assert abs(rel - delta / denom) < 1e-12


def test_align_zero_estimate():
    truth = [(crandn(4), crandn(3))]
    per_user, rel = sv.align_and_score(truth, [np.zeros((4, 3), dtype=complex)])
    h_err, x_err, c = per_user[0]
    assert c == 0
    assert abs(h_err - np.linalg.norm(truth[0][0])) < 1e-12
    assert abs(x_err - np.linalg.norm(truth[0][1])) < 1e-12
    assert abs(rel - 1.0) < 1e-12
    with pytest.raises(DimensionError):
        sv.align_and_score(truth, [])


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        sv.SolverConfig(mode="spectral")
    with pytest.raises(ConfigError):
        sv.SolverConfig(rho=0.0)
    with pytest.raises(ConfigError):
        sv.SolverConfig(over_relaxation=1.95)
    with pytest.raises(ConfigError):
        sv.SolverConfig(over_relaxation=0.5)
    with pytest.raises(ConfigError):
        sv.SolverConfig(tol_primal=0.0)
    with pytest.raises(ConfigError):
        sv.SolverConfig(max_iters=0)
    for eta in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="eta"):
            sv.SolverConfig(mode=sv.BALL, eta=eta)
    with pytest.raises(ConfigError):
        sv.SolverConfig(variables="quaternion")


def test_solve_noiseless_single_user():
    ens = demix.make_ensemble(128, [(5, 5)], seed=101)
    rep = sv.solve(ens)
    assert rep.converged
    assert rep.success and rep.rel_error < 1e-3
    assert rep.feasibility <= 1e-8 * np.linalg.norm(ens.y)
    h_rel, x_rel = rep.per_user_errors[0]
    assert h_rel < 1e-3 and x_rel < 1e-3
    hhat, xhat, c = rep.factors[0]
    assert np.linalg.norm(ens.truth[0][0] - c * hhat) < 1e-3 * np.linalg.norm(
        ens.truth[0][0]
    )
    assert rep.gaps[0] < 1e-3


def test_solve_zero_observation():
    K, N, L = 3, 3, 16
    B = demix.ensemble.make_partial_dft_B(L, K)
    A = RNG.standard_normal((L, N))
    zeros = (np.zeros(K), np.zeros(N))
    ens = demix.from_matrices([B], [A], [zeros], eta=0.0)
    rep = sv.solve(ens)
    assert rep.converged and rep.iterations == 0
    assert rep.objective == 0.0
    assert rep.estimates.norm() == 0.0
    assert rep.feasibility == 0.0
    assert rep.path == "none"


def test_solve_feasibility_and_merit_monotone():
    ens = demix.make_ensemble(64, [(6, 6), (6, 6)], seed=77)
    rep = sv.solve(ens)
    assert rep.converged
    assert rep.feasibility <= 1e-8 * np.linalg.norm(ens.y)
    m = rep.merit_history
    assert len(m) == rep.iterations
    assert np.all(np.diff(m) <= 1e-9 * (1.0 + m[0]))


def test_solve_ball_residual_and_objective():
    eta = 0.1
    ens = demix.make_ensemble(64, [(4, 4)], eta=eta, seed=55)
    cfg = sv.SolverConfig(mode=sv.BALL, eta=eta, tol_primal=1e-10, tol_dual=1e-10)
    rep = sv.solve(ens, cfg)
    assert rep.converged
    assert rep.feasibility <= eta * (1.0 + 1e-6) + 1e-12
    truth_obj = sum(_nuc(X) for X in ens.truth_matrices())
    # the truth sits exactly on the ball boundary, so it is feasible and
    # the optimum can only be cheaper
    assert rep.objective <= truth_obj + 1e-8
    m = rep.merit_history
    assert np.all(np.diff(m) <= 1e-9 * (1.0 + m[0]))


def test_solve_ball_guard_and_boundary():
    ens = demix.make_ensemble(32, [(3, 3)], seed=9)
    ynorm = float(np.linalg.norm(ens.y))
    with pytest.raises(ConfigError):
        sv.solve(ens, sv.SolverConfig(mode=sv.BALL, eta=2.0 * ynorm))
    rep = sv.solve(ens, sv.SolverConfig(mode=sv.BALL, eta=ynorm))
    assert rep.converged and rep.iterations == 0
    assert rep.estimates.norm() == 0.0
    assert rep.feasibility <= ynorm * (1.0 + 1e-12)



def test_solve_ball_radius_zero_is_the_equality_solve(monkeypatch):
    # a noiseless y lies in the range of the map up to round-off, so a
    # ball of radius 0 is the affine set: ball mode takes the equality
    # solve's projector, the pivoted-Cholesky one on the dense map and
    # LSQR (one undamped solve per projection) when no Gram is assembled,
    # and returns its estimates exactly
    ens = demix.make_ensemble(64, [(4, 4)], seed=1)
    eq = sv.solve(ens)
    ref = np.linalg.norm(pack(eq.estimates))
    ball = sv.SolverConfig(mode=sv.BALL, eta=0.0)
    dense = sv.solve(ens, ball)
    monkeypatch.setattr(lf, "_DENSE_ENTRY_LIMIT", 0)
    monkeypatch.setattr(lf, "_ASSEMBLE_LIMIT", 0)
    eq_lsqr = sv.solve(ens)
    lsqr = sv.solve(ens, ball)
    assert (dense.path, lsqr.path) == ("dense/col/chol", "matfree/row/lsqr")
    for rep, same in ((dense, eq), (lsqr, eq_lsqr)):
        assert rep.path == same.path and rep.iterations == same.iterations
        assert np.array_equal(pack(rep.estimates), pack(same.estimates))
        assert eq.converged and rep.converged and rep.success
        assert rep.feasibility <= 1e-9 * np.linalg.norm(ens.y)
        assert np.linalg.norm(pack(rep.estimates) - pack(eq.estimates)) <= 1e-6 * ref

def test_solve_equality_inconsistent_raises():
    # 9 unknowns against 16 noisy equations cannot be met exactly
    ens = demix.make_ensemble(16, [(3, 3)], eta=0.2, seed=13)
    with pytest.raises(ConfigError):
        sv.solve(ens)


def test_solve_degenerate_vector_case():
    # N=1 makes the program an l2 minimum-norm problem whose unique
    # feasible point is the least-squares solution
    ens = demix.make_ensemble(24, [(6, 1)], seed=31)
    rep = sv.solve(ens)
    assert rep.converged
    Phi = composite_matrix(ens)
    ref, *_ = np.linalg.lstsq(Phi, ens.y, rcond=None)
    got = pack(rep.estimates)
    assert np.linalg.norm(got - ref) <= 1e-6 * (1.0 + np.linalg.norm(ref))


def test_solve_deterministic():
    ens = demix.make_ensemble(48, [(4, 4)], seed=21)
    r1 = sv.solve(ens)
    r2 = sv.solve(ens)
    assert r1.iterations == r2.iterations
    assert np.array_equal(pack(r1.estimates), pack(r2.estimates))
    assert np.array_equal(r1.merit_history, r2.merit_history)


def test_solve_nonconvergence_report():
    ens = demix.make_ensemble(48, [(4, 4)], seed=22)
    rep = sv.solve(ens, sv.SolverConfig(max_iters=3))
    assert rep.converged is False
    assert rep.iterations == 3
    assert len(rep.merit_history) == 3
    assert np.isfinite(rep.primal_residual) and rep.primal_residual > 0
    assert np.isfinite(pack(rep.estimates)).all()


def test_solve_rho_adapt_smoke():
    ens = demix.make_ensemble(48, [(4, 4)], seed=23)
    rep = sv.solve(ens, sv.SolverConfig(rho_adapt=True))
    assert rep.converged and rep.success


def test_solve_reference_objective():
    ens = demix.make_ensemble(14, [(3, 3), (3, 2)], seed=41)
    rep = sv.solve(ens)
    ref = sv.solve(ens, sv.SolverConfig(tol_primal=1e-11, tol_dual=1e-11,
                                        max_iters=200000))
    assert ref.converged
    assert abs(rep.objective - ref.objective) <= 1e-4 * (1.0 + ref.objective)
    diff = np.linalg.norm(pack(rep.estimates) - pack(ref.estimates))
    assert diff <= 1e-4


def test_variables_auto_picks_real_for_real_truth():
    ens = demix.make_ensemble(48, [(4, 4)], seed=61)
    rep = sv.solve(ens)
    assert rep.variables == "real"
    # the real restriction never loses feasibility when the truth is real
    assert rep.converged and rep.success


def test_variables_auto_picks_complex_for_complex_truth():
    K, N, L = 3, 3, 64
    B = demix.ensemble.make_partial_dft_B(L, K)
    A = crandn(L, N)
    truth = [(crandn(K), crandn(N))]
    ens = demix.from_matrices([B], [A], truth, eta=0.0)
    rep = sv.solve(ens)
    assert rep.variables == "complex"
    assert rep.converged and rep.rel_error < 1e-5


def test_variables_real_and_complex_agree_when_overdetermined():
    # far above the recovery boundary both programs find the truth, so
    # their minimizers coincide
    ens = demix.make_ensemble(96, [(3, 3)], seed=62)
    rep_r = sv.solve(ens, sv.SolverConfig(variables="real"))
    rep_c = sv.solve(ens, sv.SolverConfig(variables="complex"))
    assert rep_r.variables == "real" and rep_c.variables == "complex"
    assert rep_r.success and rep_c.success
    diff = np.linalg.norm(pack(rep_r.estimates) - pack(rep_c.estimates))
    assert diff <= 1e-5 * (1.0 + np.linalg.norm(pack(rep_c.estimates)))


def test_variables_real_ball_mode():
    eta = 0.05
    ens = demix.make_ensemble(64, [(4, 4)], eta=eta, seed=63)
    # a small ball radius wants a stiffer penalty; any fixed rho keeps the
    # merit monotone, so pick one sized to the radius
    cfg = sv.SolverConfig(mode=sv.BALL, eta=eta, rho=5.0)
    rep = sv.solve(ens, cfg)
    assert rep.variables == "real"
    assert rep.converged
    assert rep.feasibility <= eta * (1.0 + 1e-6) + 1e-12
    m = rep.merit_history
    assert np.all(np.diff(m) <= 1e-9 * (1.0 + m[0]))
    # estimates stay real up to roundoff
    assert np.abs(pack(rep.estimates).imag).max() == 0.0


def test_report_csv_and_trace(tmp_path):
    ens = demix.make_ensemble(32, [(3, 3)], seed=3)
    rep = sv.solve(ens)
    row = rep.csv_row()
    assert len(row) == len(sv.SolverReport.CSV_FIELDS)
    # 9 unknowns against 64 stacked rows: the 9 x 9 column Gram served
    assert rep.path == "dense/col/chol" and "path" not in sv.SolverReport.CSV_FIELDS
    assert row[0] == sv.EQUALITY
    assert row[1] == rep.variables
    out = tmp_path / "trace.csv"
    rep.write_trace(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,merit,objective"
    assert len(lines) == rep.iterations + 1


def test_solve_rejects_non_finite_input():
    for field, where in (("y", (3,)), ("B", (0, 5, 1)), ("A", (0, 7, 2))):
        ens = demix.make_ensemble(32, [(3, 3)], seed=4)
        if field == "y":
            ens.y = ens.y.copy()
            ens.y[where] = np.nan
        else:
            getattr(ens, field)[where[0]][where[1:]] = np.inf
        with pytest.raises(ConfigError, match=field):
            sv.solve(ens)


@pytest.mark.parametrize("variables", ["real", "complex"])
def test_solve_matrix_free_matches_dense(monkeypatch, variables):
    # Every solver test above runs the dense operators; with the entry
    # limit at 0 the same instance runs the FFT operators.  25 unknowns
    # against 48 (or 96 stacked) rows: both factor the 25 x 25 column Gram,
    # built from its Toeplitz blocks.  With the assembly limit at 0 too, the
    # row side projects by LSQR.
    ens = demix.make_ensemble(48, [(4, 4), (3, 3)], seed=24)
    cfg = sv.SolverConfig(variables=variables)
    dense = sv.solve(ens, cfg)
    monkeypatch.setattr(lf, "_DENSE_ENTRY_LIMIT", 0)
    free = sv.solve(ens, cfg)
    monkeypatch.setattr(lf, "_ASSEMBLE_LIMIT", 0)
    lsqr = sv.solve(ens, cfg)
    assert (dense.path, free.path, lsqr.path) == (
        "dense/col/chol", "matfree/col/chol", "matfree/row/lsqr")
    ref = np.linalg.norm(pack(dense.estimates))
    for rep in (free, lsqr):
        assert dense.converged and rep.converged and rep.success
        assert rep.iterations == dense.iterations
        assert np.linalg.norm(pack(rep.estimates) - pack(dense.estimates)) <= 1e-9 * ref


@pytest.mark.parametrize("variables", ["real", "complex"])
def test_solve_partial_dft_matches_explicit_matrices(variables):
    # The same instance with b_kind "dft" (the Toeplitz-block column Gram)
    # and through from_matrices (b_kind None: the column Gram _MH @ M)
    ens = demix.make_ensemble(60, [(4, 3), (2, 5)], seed=9)
    explicit = demix.from_matrices(ens.B, ens.A, ens.truth)
    assert np.array_equal(explicit.y, ens.y)
    cfg = sv.SolverConfig(variables=variables)
    dft, generic = sv.solve(ens, cfg), sv.solve(explicit, cfg)
    assert dft.path == generic.path == "dense/col/chol"
    assert dft.converged and dft.success
    assert dft.iterations == generic.iterations
    ref = np.linalg.norm(pack(generic.estimates))
    assert np.linalg.norm(pack(dft.estimates) - pack(generic.estimates)) <= 1e-9 * ref


def test_solve_matrix_free_row_side_matches_dense(monkeypatch):
    # 36 real unknowns against 32 stacked rows: the row side, whose Gram
    # P P^T has rank 30 (the real DFT rows l = 8 and 16).  The matrix-free
    # map assembles it from the Hadamard forms (stacked_gram) and factors
    # it as the dense map does.
    ens = demix.make_ensemble(16, [(6, 6)], seed=3)
    dense = sv.solve(ens)
    monkeypatch.setattr(lf, "_DENSE_ENTRY_LIMIT", 0)
    free = sv.solve(ens)
    assert (dense.path, free.path) == ("dense/row/pinv", "matfree/row/pinv")
    assert dense.converged and free.converged and free.success
    assert free.iterations == dense.iterations
    ref = np.linalg.norm(pack(dense.estimates))
    assert np.linalg.norm(pack(free.estimates) - pack(dense.estimates)) <= 1e-9 * ref


def test_solve_ball_matrix_free_snap_matches_dense(monkeypatch):
    # 16 real unknowns against 128 stacked rows: the noise mostly lies
    # outside the range of P, so the ball projection works with the range
    # part of y.  The column side projects with the eigenvectors of the
    # 16 x 16 P^T P, dense or summed over row chunks; the row-side
    # matrix-free map finds the multiplier by LSQR.
    ens = demix.make_ensemble(64, [(4, 4)], eta=0.1, seed=55)
    cfg = sv.SolverConfig(mode=sv.BALL, eta=0.1, rho=4.0)
    dense = sv.solve(ens, cfg)
    monkeypatch.setattr(lf, "_DENSE_ENTRY_LIMIT", 0)
    free = sv.solve(ens, cfg)
    monkeypatch.setattr(lf, "_ASSEMBLE_LIMIT", 0)
    lsqr = sv.solve(ens, cfg)
    assert (dense.path, free.path, lsqr.path) == (
        "dense/col/eigh", "matfree/col/eigh", "matfree/row/lsqr")
    for rep in (free, lsqr):
        assert dense.converged and rep.converged
        assert rep.iterations == dense.iterations
        assert rep.feasibility <= 0.1 * (1.0 + 1e-6)
        assert abs(rep.rel_error - dense.rel_error) <= 1e-9 * dense.rel_error


@pytest.mark.parametrize("L,dims,seed,paths", [
    (64, [(4, 4)], 55, ("dense/col/chol", "matfree/col/chol", "matfree/row/lsqr")),
    (16, [(6, 6)], 3, ("dense/row/pinv", "matfree/row/pinv", "matfree/row/lsqr")),
])
def test_equality_inconsistent_reports_least_squares_residual(monkeypatch, L, dims,
                                                              seed, paths):
    # Noisy y out of the range of the real map: every path raises
    # ConfigError with the least-squares residual of the scaled system
    # (the row side without an assembled Gram by LSQR).
    ens = demix.make_ensemble(L, dims, eta=0.1, seed=seed)
    ys = ens.y / np.linalg.norm(ens.y)
    ys = np.concatenate([ys.real, ys.imag])
    Phi = composite_matrix(ens)
    P = np.vstack([Phi.real, Phi.imag])
    want = np.linalg.norm(P @ np.linalg.lstsq(P, ys, rcond=None)[0] - ys)
    assert want > 1e-4
    limits = ({}, {"_DENSE_ENTRY_LIMIT": 0}, {"_DENSE_ENTRY_LIMIT": 0, "_ASSEMBLE_LIMIT": 0})
    for limit, path in zip(limits, paths):
        with monkeypatch.context() as mp:
            for name, value in limit.items():
                mp.setattr(lf, name, value)
            mmap = lf.MeasurementMap(ens, real=True)
            assert lf.projector(mmap, np.zeros(mmap.rows))[1] == path
            with pytest.raises(ConfigError, match="inconsistent") as err:
                sv.solve(ens)
        got = float(err.value.args[0].split("least-squares residual ")[1].split(",")[0])
        assert abs(got - want) <= 1e-3 * want


def test_ball_missing_the_range_raises():
    # 16 real unknowns against 128 stacked rows leave the noise mostly
    # outside the range of P: a radius of half the least-squares residual
    # (0.045 against 0.0900) cannot be met, and the error reports the
    # residual relative to ||y||, as the equality probe does.
    ens = demix.make_ensemble(64, [(4, 4)], eta=0.1, seed=55)
    Phi = composite_matrix(ens)
    P = np.vstack([Phi.real, Phi.imag])
    y = np.concatenate([ens.y.real, ens.y.imag])
    res = np.linalg.norm(P @ np.linalg.lstsq(P, y, rcond=None)[0] - y)
    assert abs(res - 0.0900) < 1e-4
    with pytest.raises(ConfigError, match="misses the range") as err:
        sv.solve(ens, sv.SolverConfig(mode=sv.BALL, eta=0.5 * res, rho=4.0))
    got = float(err.value.args[0].split("least-squares residual ")[1].split(",")[0])
    assert abs(got - res / np.linalg.norm(ens.y)) <= 1e-3 * got
