"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers so a
plain `pytest -v` run doubles as the acceptance report.  Criteria:

　1. exact-recovery boundary in L (Gaussian coding, r=2)
　2. fixed-L boundary in the dimensions (K, N)
　3. Hadamard coding recovery
　4. noise sweep: error-vs-SNR slope, fit quality, linear-in-eta bound
　5. mu^2_h range: ones-family exactness + bounds on random draws
　6. partition block-Gram exactness for the DFT rows
　7. operator adjoint/oracle/transform equivalences
　8. tangent-space condition statistics at large L
　9. golfing decay and dual-certificate conditions (known-infeasible
　   geometry: at Q = L/P = 128 the per-step contraction measures ~0.59,
　   so the 1/2 rate and the certificate gates cannot hold; the same
　   checks pass 10/10 at L = 2048 — see tests/test_certificate.py)
 10. solver agreement with long-run tight-tolerance reference solves
"""

import time

import numpy as np

from demix.certificate import check_dual_certificate, golfing_run
from demix.ensemble import (GAUSSIAN, GENERIC_ORTHO, PARTIAL_DFT,
                            RAND_HADAMARD, A_KINDS, B_KINDS, fwht,
                            make_ensemble, partial_dft_matrix, substream)
from demix.harness import (noise_fit, noise_grid, phase_kn_grid,
                           phase_lr_grid, run_experiment)
from demix.incoherence import (dft_partition, local_isometry_norm,
                               mu_h, mu_max_min, mutual_incoherence,
                               truth_spaces, verify_partition)
from demix.lifting import MeasurementMap, apply_adjoint, apply_op, pack
from demix.solver import SolverConfig, solve

from _oracles import dft_rmatmul, slow_apply_op, slow_composite_phi

GRID_SEED = 1
NOISE_SEED = 2026


def _verdict(num, slug, ok, detail):
    print("acceptance %02d %s: %s (%s)" % (num, slug, "PASS" if ok else "FAIL", detail))
    return "%02d %s: %s" % (num, slug, detail)


def test_01_exact_recovery_boundary():
    t0 = time.time()
    grid = phase_lr_grid(L_values=(100, 250), r_values=(2,), trials=10,
                         seed=GRID_SEED)
    cells, _ = run_experiment(grid)
    counts = {c.coords[0][1]: c.success_count for c in cells}
    elapsed = time.time() - t0
    ok = counts[250] >= 9 and counts[100] <= 2 and elapsed < 600
    msg = _verdict(1, "exact-recovery-boundary", ok,
                   "L=250 %d/10 (need >=9), L=100 %d/10 (need <=2), %.0fs (budget 600s)"
                   % (counts[250], counts[100], elapsed))
    assert ok, msg


def test_02_fixed_l_dimension_boundary():
    counts = {}
    for kn in (20, 40):
        grid = phase_kn_grid(K_values=(kn,), N_values=(kn,), L=128, r=2,
                             trials=10, seed=GRID_SEED)
        cells, _ = run_experiment(grid)
        counts[kn] = cells[0].success_count
    ok = counts[20] >= 8 and counts[40] <= 2
    msg = _verdict(2, "fixed-L-dimension-boundary", ok,
                   "(20,20) %d/10 (need >=8), (40,40) %d/10 (need <=2)"
                   % (counts[20], counts[40]))
    assert ok, msg


def test_03_hadamard_coding():
    grid = phase_lr_grid(a_kind=RAND_HADAMARD, L_values=(128,), r_values=(2,),
                         trials=10, seed=GRID_SEED)
    cells, _ = run_experiment(grid)
    n = cells[0].success_count
    ok = n >= 9
    msg = _verdict(3, "hadamard-coding", ok, "L=128 K=N=15 r=2: %d/10 (need >=9)" % n)
    assert ok, msg


def test_04_noise_linearity():
    grid = noise_grid(trials=10, seed=NOISE_SEED)
    cells, fit = run_experiment(grid)
    assert fit is not None
    refit = noise_fit(cells)
    assert refit.slope == fit.slope and refit.r_squared == fit.r_squared
    ratios = [c.extra["mean_err_over_eta"] for c in cells]
    ok = (-1.15 <= fit.slope <= -0.85 and fit.r_squared > 0.99
          and max(ratios) <= 10.0 and fit.c_max < 1.0)
    msg = _verdict(4, "noise-linearity", ok,
                   "slope %.3f (need [-1.15,-0.85]), R^2 %.4f (need >0.99), "
                   "max err/eta %.2f (bound 10), c_max %.3f"
                   % (fit.slope, fit.r_squared, max(ratios), fit.c_max))
    assert ok, msg


def test_05_mu_h_range():
    # ones-family: the plain branch must equal the support size exactly
    worst = 0.0
    for L, K in ((128, 32), (250, 30), (64, 16)):
        ens = make_ensemble(L, ((K, 2),), seed=0)
        for m in range(1, K + 1):
            h = np.zeros(K)
            h[:m] = 1.0
            _, _, plain = mu_h(ens, h_list=[h], return_branches=True)
            assert round(plain) == m
            worst = max(worst, abs(plain - m))
    exact_ok = worst <= 1e-9
    # bounds on 1000 random (B, h, partition) draws within the verified-
    # partition hypothesis (draws whose partition fails it are redrawn)
    rng = np.random.default_rng(5)
    accepted = violations = skipped = 0
    while accepted < 1000:
        if rng.random() < 0.8:
            kind = PARTIAL_DFT
            L = int(rng.choice((64, 128, 256)))
            P = int(rng.choice((2, 4, 8)))
            K = int(rng.integers(2, 13))
        else:
            kind, L, P = GENERIC_ORTHO, 512, 2
            K = int(rng.integers(2, 4))
        ens = make_ensemble(L, ((K, 2),), b_kind=kind,
                            seed=int(rng.integers(2**31)))
        part = dft_partition(L, P)
        if not verify_partition(ens, part)[1]:
            skipped += 1
            continue
        style = rng.integers(0, 3)
        if style == 0:
            h = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        elif style == 1:
            h = np.zeros(K, complex)
            h[rng.integers(0, K)] = 1.0
        else:
            h = np.zeros(K, complex)
            h[: rng.integers(1, K + 1)] = 1.0
        val = mu_h(ens, partition=part, h_list=[h])
        hi = (16.0 / 9.0) * mu_max_min(ens)[0] * K
        violations += not (1.0 - 1e-9 <= val <= hi + 1e-9)
        accepted += 1
    ok = exact_ok and violations == 0
    msg = _verdict(5, "mu-h-range", ok,
                   "ones-family worst |branch-m| %.1e (need <=1e-9); "
                   "1000 draws: %d violations (need 0), %d redraws"
                   % (worst, violations, skipped))
    assert ok, msg


def test_06_partition_exactness():
    # K must not exceed the block size Q = L/P (here min Q is 64/8 = 8):
    # a Q-row block Gram has rank at most Q, so K > Q cannot be exact.
    worst = 0.0
    for L in (64, 128, 256):
        ens = make_ensemble(L, ((8, 3), (5, 2)), seed=2)
        for P in (2, 4, 8):
            part = dft_partition(L, P)
            scale = part.Q / L
            for i in range(ens.r):
                K = ens.dims[i][0]
                for p in range(P):
                    rows = ens.B[i][part.block(p)]
                    T = rows.conj().T @ rows
                    worst = max(worst, float(np.linalg.norm(T - scale * np.eye(K))))
    ok = worst <= 1e-10
    msg = _verdict(6, "partition-exactness", ok,
                   "max ||T_ip - (Q/L)I||_F = %.2e over L in {64,128,256}, "
                   "P in {2,4,8} (need <=1e-10)" % worst)
    assert ok, msg


def test_07_operator_correctness():
    worst_adj = worst_dense = worst_fft = 0.0
    for b_kind in B_KINDS:
        for a_kind in A_KINDS:
            ens = make_ensemble(16, ((3, 2), (2, 3)), b_kind=b_kind,
                                a_kind=a_kind, seed=3)
            rng = np.random.default_rng(4)
            blocks = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                      for d in ens.dims]
            z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            for i, Z in enumerate(blocks):
                lhs = np.vdot(z, apply_op(ens, i, Z))
                rhs = np.vdot(apply_adjoint(ens, i, z), Z)
                worst_adj = max(worst_adj, abs(lhs - rhs) / abs(lhs))
                fast = apply_op(ens, i, Z)
                dense = slow_apply_op(ens.B[i], ens.A[i], Z)
                worst_dense = max(worst_dense,
                                  float(np.linalg.norm(fast - dense)
                                        / np.linalg.norm(dense)))
            full = slow_composite_phi(ens.B, ens.A) @ pack(blocks)
            free = MeasurementMap(ens).mv(pack(blocks))
            worst_dense = max(worst_dense,
                              float(np.linalg.norm(full - free) / np.linalg.norm(full)))
    # transforms against directly-built matrices
    rng = np.random.default_rng(6)
    for L, K in ((12, 5), (16, 16)):
        B = partial_dft_matrix(L, K)
        M = rng.standard_normal((L, 3)) + 1j * rng.standard_normal((L, 3))
        d = np.linalg.norm(dft_rmatmul(M, L, K) - B.conj().T @ M)
        worst_fft = max(worst_fft, float(d / np.linalg.norm(B.conj().T @ M)))
    H = np.array([[1.0]])
    for _ in range(4):
        H = np.kron(H, np.array([[1.0, 1.0], [1.0, -1.0]]))
    v = rng.standard_normal((16, 2))
    worst_fft = max(worst_fft,
                    float(np.linalg.norm(fwht(v) - H @ v) / np.linalg.norm(H @ v)))
    ok = max(worst_adj, worst_dense, worst_fft) <= 1e-10
    msg = _verdict(7, "operator-correctness", ok,
                   "adjoint %.1e, kernel-vs-oracle %.1e, fft/fwht-vs-direct %.1e "
                   "(all need <=1e-10)" % (worst_adj, worst_dense, worst_fft))
    assert ok, msg


def test_08_tangent_condition_statistics():
    iso_ok = mut_ok = 0
    for t in range(10):
        seed = int(substream(GRID_SEED, 901, t).integers(0, 2**63))
        ens = make_ensemble(2048, ((4, 4), (4, 4)), seed=seed)
        spaces = truth_spaces(ens)
        iso = max(local_isometry_norm(ens, i, ts=spaces[i]) for i in range(2))
        mut = mutual_incoherence(ens, spaces)
        iso_ok += iso <= 0.25
        mut_ok += mut <= 0.125
    ok = iso_ok >= 9 and mut_ok >= 9
    msg = _verdict(8, "tangent-condition-statistics", ok,
                   "L=2048 K=N=4 r=2: iso<=1/4 in %d/10, mutual<=1/8 in %d/10 "
                   "(need >=9 each)" % (iso_ok, mut_ok))
    assert ok, msg


def test_09_golfing_decay_and_certificate():
    w_ok = mu_ok = cert_ok = 0
    part = dft_partition(512, 4)
    for t in range(10):
        seed = int(substream(GRID_SEED, 902, t).integers(0, 2**63))
        ens = make_ensemble(512, ((8, 8), (8, 8)), seed=seed)
        rep = check_dual_certificate(ens, golfing_run(ens, part))
        w_ok += all(rep.w_norms[p].max() <= 2.0 ** (-p) for p in range(1, 5))
        mu_ok += all(rep.mu_halving)
        cert_ok += bool(rep.passed)
    ok = w_ok >= 9 and mu_ok >= 9 and cert_ok >= 8
    msg = _verdict(9, "golfing-decay-and-certificate", ok,
                   "L=512 P=4 K=N=8 r=2: w-decay %d/10 (need >=9), mu-halving "
                   "%d/10 (need >=9), certificate %d/10 (need >=8)"
                   % (w_ok, mu_ok, cert_ok))
    assert ok, msg


def test_10_solver_oracle():
    worst_obj = worst_sol = worst_feas = 0.0
    rng = np.random.default_rng(GRID_SEED)
    for _ in range(20):
        r = int(rng.integers(1, 3))
        dims = tuple((int(rng.integers(2, 4)), int(rng.integers(2, 4)))
                     for _ in range(r))
        L = int(rng.choice((8, 12, 16, 24)))
        ens = make_ensemble(L, dims, a_kind=GAUSSIAN,
                            seed=int(rng.integers(2**31)))
        fast = solve(ens, SolverConfig(max_iters=20000))
        ref = solve(ens, SolverConfig(max_iters=400000, tol=1e-12))
        worst_obj = max(worst_obj, abs(fast.objective - ref.objective)
                        / max(1.0, ref.objective))
        worst_sol = max(worst_sol,
                        float(np.sqrt(sum(np.linalg.norm(a - b) ** 2
                                          for a, b in zip(fast.estimates.blocks,
                                                          ref.estimates.blocks)))))
        worst_feas = max(worst_feas,
                         fast.feasibility / float(np.linalg.norm(ens.y)))
    ok = worst_obj <= 1e-4 and worst_sol <= 1e-4 and worst_feas <= 1e-8
    msg = _verdict(10, "solver-oracle", ok,
                   "20 tiny instances: obj dev %.1e (need <=1e-4), solution dev "
                   "%.1e Fro (need <=1e-4), feasibility %.1e (need <=1e-8)"
                   % (worst_obj, worst_sol, worst_feas))
    assert ok, msg
