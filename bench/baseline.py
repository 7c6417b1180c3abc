"""Re-measure the figures of ROADMAP's "baseline measured at this re-anchor".

    python3 bench/baseline.py            # about three minutes on 2 cores

Not part of the benchmark's runs: it prints one line per figure so that
bench/README.md can set them beside the ROADMAP numbers.  BLAS is pinned
to one thread, as in the benchmark.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run._import_demix()

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import spans  # noqa: E402
from demix import harness, lifting, solver  # noqa: E402
from demix.ensemble import make_ensemble  # noqa: E402


def ball_solves():
    """ms per iteration, iterations and layer shares of gaussian-r3 ball solves."""
    sigmas = (1.0, 0.1, 0.01, 0.001)
    grid = harness.noise_grid("gaussian-r3", sigmas=sigmas, trials=1, seed=0)
    with spans.Tracer() as tracer:
        harness.run_experiment(grid)
    child_s = {}
    for s in tracer.spans:
        key = (s.parent, s.name)
        child_s[key] = child_s.get(key, 0.0) + s.seconds
    solves = sorted(spans.outermost(tracer.spans, "solver.solve"), key=lambda s: s.id)
    for sigma, solve in zip(sigmas, solves):
        iters = solve.info["iters"]

        def share(name):
            return 100 * child_s.get((solve.id, name), 0.0) / solve.seconds

        print("ball L=256 r=3 sigma=%g: %d iterations, %.2f s, %.2f ms/iter; "
              "P products %.0f%%, SVT %.0f%%, Gram solves %.0f%%"
              % (sigma, iters, solve.seconds, solve.seconds / iters * 1e3,
                 share("lifting.matvec"), share("solver.svt"), share("lifting.project")))


def equality_solve():
    ens = make_ensemble(250, ((30, 25),) * 2, seed=0)
    t0 = time.perf_counter()
    rep = solver.solve(ens, solver.SolverConfig(max_iters=10000))
    sec = time.perf_counter() - t0
    print("equality L=250 r=2 (30,25): %d iterations, %.2f s, %.2f ms/iter, success %s"
          % (rep.iterations, sec, sec / rep.iterations * 1e3, rep.success))


def phase_cells():
    walls = {}
    for threads in (1, 2):
        grid = harness.phase_lr_grid(L_values=(150, 250), r_values=(2,), trials=6,
                                     seed=0, threads=threads)
        t0 = time.perf_counter()
        cells, _ = harness.run_experiment(grid)
        walls[threads] = time.perf_counter() - t0
        if threads == 1:
            for c in cells:
                print("phase-lr (30,25) %s: %d/%d succeed, mean %.0f iterations"
                      % (dict(c.coords), c.success_count, c.total, c.mean_iterations))
    print("phase-lr L=150,250 r=2 x6 trials: %.1f s on 1 thread, %.1f s on 2 (%.2fx)"
          % (walls[1], walls[2], walls[1] / walls[2]))


def injective_2048():
    ens = make_ensemble(2048, ((32, 32),) * 2, seed=0)
    t0 = time.perf_counter()
    rep = solver.solve(ens)
    print("L=2048 r=2 K=N=32 default path (L*sumKN=%d): %d iterations, %.1f s, rel_error %.1e"
          % (ens.L * ens.sum_kn, rep.iterations, time.perf_counter() - t0, rep.rel_error))
    limit = solver._DENSE_ENTRY_LIMIT
    solver._DENSE_ENTRY_LIMIT = ens.L * ens.sum_kn
    try:
        t0 = time.perf_counter()
        rep = solver.solve(ens)
        print("L=2048 r=2 K=N=32 dense path: %d iterations, %.1f s, rel_error %.1e"
              % (rep.iterations, time.perf_counter() - t0, rep.rel_error))
    finally:
        solver._DENSE_ENTRY_LIMIT = limit
    t0 = time.perf_counter()
    Phi = lifting.composite_matrix(ens)
    P = np.vstack([Phi.real, Phi.imag])
    b = np.concatenate([ens.y.real, ens.y.imag])
    Q, R = np.linalg.qr(P)
    z = scipy.linalg.solve_triangular(R, Q.T @ b)
    est = lifting.unpack(z.astype(complex), ens.dims)
    _, rel = solver.align_and_score(ens.truth, est)
    print("L=2048 r=2 K=N=32 QR least squares: %.1f s, rel_error %.1e"
          % (time.perf_counter() - t0, rel))


if __name__ == "__main__":
    for step in (ball_solves, equality_solve, phase_cells, injective_2048):
        step()
        sys.stdout.flush()
