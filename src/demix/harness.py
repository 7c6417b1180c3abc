"""Monte-Carlo experiment driver: phase-transition grids and noise sweeps.

Four named experiments cover the standard empirical evidence for the
lifted nuclear-norm program:

  phase-lr   success fraction over (L, r) cells: minimal measurement
             count per number of sources, Gaussian or randomized-Hadamard
             coding matrices
  phase-kn   success fraction over (K, N) cells at fixed L and r
  mu-h       success fraction over (L, m) cells where the impulse
             response is a ones-vector of length m, so the coherence
             branch value L max_l |<b_l, h>|^2 / ||h||^2 equals m exactly
  noise      average relative error versus noise level sigma under the
             ball-constrained solver with eta = ||noise||, plus the
             least-squares slope of error (dB) against SNR (dB)

Each cell runs `trials` independent instances.  Trial seeds are pre-split
from (grid seed, experiment, cell coordinates, trial index) before any
work is scheduled, so the thread count and scheduling order never change
a reported number; the wall_ms columns are timing measurements and are
the only run-dependent output.  A trial succeeds when the lifted relative
error stays below 1e-3 and the solver converged; non-convergence or a
raised solver error counts as a recovery failure and carries a reason
flag in the per-trial CSV.

Desk-scale default grids keep runtimes small; profile="full" switches to
the full-size grids.  Both profiles emit identical CSV schemas.
"""

import csv
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields as dataclass_fields, replace

import numpy as np

from .ensemble import (
    GAUSSIAN,
    PARTIAL_DFT,
    RAND_HADAMARD,
    TAG_TRIAL,
    TAG_X,
    add_noise,
    make_ensemble,
    substream,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    SingularGramError,
)
from .incoherence import mu_h
from .lifting import gram_spectrum
from .solver import BALL, SolverConfig, solve

PHASE_LR = "phase-lr"
PHASE_KN = "phase-kn"
MU_H = "mu-h"
NOISE = "noise"
EXPERIMENTS = (PHASE_LR, PHASE_KN, MU_H, NOISE)
_EXPERIMENT_CODE = {name: 101 + i for i, name in enumerate(EXPERIMENTS)}

DESK = "desk"
FULL = "full"
PROFILES = (DESK, FULL)

DEFAULT_SIGMAS = (1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001)
FULL_SIGMAS = DEFAULT_SIGMAS + (0.0005, 0.0001)

NOISE_PROFILES = {
    "gaussian-r3": {
        "L": 256,
        "dims": ((20, 20), (25, 25), (20, 20)),
        "a_kind": GAUSSIAN,
    },
    "hadamard-r15": {
        "L": 512,
        "dims": ((15, 10),) * 15,
        "a_kind": RAND_HADAMARD,
    },
}

# Errors a single trial is allowed to raise; anything else is a bug and
# propagates out of the run.
_TRIAL_ERRORS = (ConfigError, ConvergenceError, DimensionError, SingularGramError)


# ----------------------------------------------------------------------
# Grid and result types


@dataclass(frozen=True)
class ExperimentGrid:
    """One experiment's axes plus everything needed to rerun it.

    axes is a tuple of (name, values) pairs; the cells are the cartesian
    product of the value lists, first axis outermost.  base_dims is the
    per-user (K, N) template: a single pair replicated r times for the
    phase grids, or the full per-user tuple for the noise profiles.  L
    and r pin the coordinate that the experiment holds fixed (None when
    it is an axis instead).
    """

    name: str
    axes: tuple
    trials: int = 10
    b_kind: str = PARTIAL_DFT
    a_kind: str = GAUSSIAN
    base_dims: tuple = ((30, 25),)
    L: int | None = None
    r: int | None = None
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    threads: int = 1
    outdir: str | None = None
    profile: str = DESK

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ConfigError(
                "unknown experiment %r; choose from %r" % (self.name, EXPERIMENTS)
            )
        axes = tuple((str(n), tuple(v)) for n, v in self.axes)
        object.__setattr__(self, "axes", axes)
        if not axes or any(len(vals) == 0 for _, vals in axes):
            raise ConfigError("grid is empty: every axis needs at least one value")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1, got %r" % (self.trials,))
        object.__setattr__(
            self, "base_dims", tuple((int(k), int(n)) for k, n in self.base_dims)
        )
        if self.threads < 1:
            raise ConfigError("threads must be at least 1, got %r" % (self.threads,))
        if self.profile not in PROFILES:
            raise ConfigError(
                "profile must be one of %r, got %r" % (PROFILES, self.profile)
            )

    @property
    def axis_names(self):
        return tuple(n for n, _ in self.axes)

    def cells(self):
        """Cell coordinates as ((name, value), ...) tuples, first axis outermost."""
        names = self.axis_names
        out = []
        for combo in itertools.product(*(vals for _, vals in self.axes)):
            out.append(tuple(zip(names, combo)))
        return out


@dataclass
class TrialResult:
    """One solve inside one cell."""

    experiment: str
    coords: tuple
    trial: int
    seed: int
    success: bool
    converged: bool
    rel_error: float
    iterations: int
    wall_ms: float
    reason: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class CellResult:
    """Aggregate over the trials of one cell (plus the raw rows)."""

    experiment: str
    coords: tuple
    trials: tuple
    success_count: int
    total: int
    mean_rel_error: float
    rel_errors: tuple
    mean_iterations: float
    wall_ms: float
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.success_count <= self.total:
            raise ConfigError(
                "success count %d outside [0, %d]" % (self.success_count, self.total)
            )

    @property
    def fraction(self):
        return self.success_count / self.total


@dataclass(frozen=True)
class NoiseFit:
    """Least-squares line of mean error (dB) against SNR (dB).

    c_max is the largest per-trial stability ratio
    error / (eta * (lam_max/lam_min) * r * sqrt(max(K, N))) seen in the
    sweep; a finite value across all sigma is the linear-in-eta evidence.
    """

    slope: float
    intercept: float
    r_squared: float
    c_max: float
    n_cells: int


# ----------------------------------------------------------------------
# Seeding and the trial loop


def _axis_code(value):
    """Stable integer encoding of an axis value (exact for ints and floats)."""
    f = float(value)
    if f == int(f):
        return int(f)
    return int(np.float64(f).view(np.uint64))


def trial_seed(grid, coords, trial):
    """The pre-split seed for one trial.

    Depends only on (grid seed, experiment name, cell coordinates, trial
    index), never on scheduling, so reruns and reorderings reproduce the
    same instance bit for bit.
    """
    codes = [_EXPERIMENT_CODE[grid.name]]
    codes += [_axis_code(v) for _, v in coords]
    codes.append(int(trial))
    rng = substream(grid.seed, TAG_TRIAL, *codes)
    return int(rng.integers(0, 2**63))


def _finite_mean(values):
    vals = [float(v) for v in values if math.isfinite(float(v))]
    if not vals:
        return float("nan")
    return float(np.mean(vals))


def _one_trial(grid, coords, builder, trial, seed):
    t0 = time.perf_counter()
    try:
        ens, cfg, post = builder(seed)
        rep = solve(ens, cfg)
        extra = post(ens, rep) if post is not None else {}
        row = TrialResult(
            experiment=grid.name,
            coords=coords,
            trial=trial,
            seed=seed,
            success=bool(rep.success) and rep.converged,
            converged=rep.converged,
            rel_error=float(rep.rel_error),
            iterations=int(rep.iterations),
            wall_ms=0.0,
            reason="" if rep.converged else "no-converge",
            extra=dict(extra or {}),
        )
    except _TRIAL_ERRORS as exc:
        row = TrialResult(
            experiment=grid.name,
            coords=coords,
            trial=trial,
            seed=seed,
            success=False,
            converged=False,
            rel_error=float("nan"),
            iterations=0,
            wall_ms=0.0,
            reason=type(exc).__name__,
        )
    row.wall_ms = (time.perf_counter() - t0) * 1e3
    return row


def _aggregate(experiment, coords, rows, extra=None):
    rows = tuple(sorted(rows, key=lambda t: t.trial))
    return CellResult(
        experiment=experiment,
        coords=coords,
        trials=rows,
        success_count=sum(1 for t in rows if t.success),
        total=len(rows),
        mean_rel_error=_finite_mean(t.rel_error for t in rows),
        rel_errors=tuple(t.rel_error for t in rows),
        mean_iterations=_finite_mean(float(t.iterations) for t in rows),
        wall_ms=float(sum(t.wall_ms for t in rows)),
        extra=dict(extra or {}),
    )


def _run_grid(grid, make_builder, cell_extra=None):
    """Run every (cell, trial) task, optionally on a thread pool.

    Builders are constructed up front and trial seeds pre-split, so the
    worker pool only ever consumes self-contained closures; results are
    merged per cell in trial order regardless of completion order.
    """
    cells = grid.cells()
    builders = [make_builder(grid, dict(coords)) for coords in cells]
    tasks = []
    for ci, coords in enumerate(cells):
        for t in range(grid.trials):
            tasks.append((ci, t, trial_seed(grid, coords, t)))

    def run_one(task):
        ci, t, seed = task
        return ci, _one_trial(grid, cells[ci], builders[ci], t, seed)

    if grid.threads == 1:
        done = [run_one(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=grid.threads) as pool:
            done = list(pool.map(run_one, tasks))
    by_cell = {ci: [] for ci in range(len(cells))}
    for ci, row in done:
        by_cell[ci].append(row)
    out = []
    for ci, coords in enumerate(cells):
        rows = by_cell[ci]
        extra = cell_extra(grid, dict(coords), rows) if cell_extra else None
        out.append(_aggregate(grid.name, coords, rows, extra))
    return out


def _expect_axes(grid, names):
    if grid.axis_names != tuple(names):
        raise ConfigError(
            "%s grid needs axes %r, got %r" % (grid.name, tuple(names), grid.axis_names)
        )


def _template_dims(grid):
    if len(grid.base_dims) != 1:
        raise ConfigError(
            "this experiment uses a single (K, N) template, got %r" % (grid.base_dims,)
        )
    return grid.base_dims[0]


# ----------------------------------------------------------------------
# The four experiments


def run_phase_lr(grid):
    """Success fraction over (L, r) cells: noiseless equality solves."""
    _expect_axes(grid, ("L", "r"))
    K, N = _template_dims(grid)

    def make_builder(grid, coords):
        L, r = int(coords["L"]), int(coords["r"])
        dims = ((K, N),) * r

        def build(seed):
            ens = make_ensemble(
                L, dims, b_kind=grid.b_kind, a_kind=grid.a_kind, eta=0.0, seed=seed
            )
            return ens, grid.solver, None

        return build

    return _run_grid(grid, make_builder)


def run_phase_kn(grid):
    """Success fraction over (K, N) cells at fixed L and r."""
    _expect_axes(grid, ("K", "N"))
    if grid.L is None:
        raise ConfigError("phase-kn needs a fixed L on the grid")
    r = grid.r if grid.r is not None else 2

    def make_builder(grid, coords):
        K, N = int(coords["K"]), int(coords["N"])
        dims = ((K, N),) * r

        def build(seed):
            ens = make_ensemble(
                grid.L, dims, b_kind=grid.b_kind, a_kind=grid.a_kind, eta=0.0, seed=seed
            )
            return ens, grid.solver, None

        return build

    return _run_grid(grid, make_builder)


def run_mu_h_sweep(grid):
    """Success fraction over (L, m): h has its first m entries equal to one.

    Each cell records the coherence branch value
    L max_l |<b_l, h>|^2 / ||h||^2, which for this family equals m for
    every L.  The x side of the truth is drawn exactly as the plain
    random truth would be, so only h is pinned.
    """
    _expect_axes(grid, ("L", "m"))
    K, N = _template_dims(grid)
    for _, value in [c for coords in grid.cells() for c in coords if c[0] == "m"]:
        if not 1 <= int(value) <= K:
            raise ConfigError("ones-count m=%r outside [1, K=%d]" % (value, K))

    def make_builder(grid, coords):
        L, m = int(coords["L"]), int(coords["m"])

        def build(seed):
            h = np.zeros(K)
            h[:m] = 1.0
            x = substream(seed, TAG_X, 0).standard_normal(N)
            ens = make_ensemble(
                L,
                ((K, N),),
                b_kind=grid.b_kind,
                a_kind=grid.a_kind,
                eta=0.0,
                seed=seed,
                truth=[(h, x)],
            )

            def post(ens, rep):
                _, _, plain = mu_h(ens, return_branches=True)
                return {"mu2_branch": plain}

            return ens, grid.solver, post

        return build

    def cell_extra(grid, coords, rows):
        vals = [t.extra["mu2_branch"] for t in rows if "mu2_branch" in t.extra]
        return {"mu2_branch": _finite_mean(vals)}

    return _run_grid(grid, make_builder, cell_extra)


def _noise_rho(sigma, base_rho):
    """Initial ADMM penalty for a ball solve at noise level sigma.

    An ADMM step through the ball projection makes progress proportional to
    rho when the radius is a small fraction of ||y||, so the penalty scales
    like 1/sigma (residual balancing then fine-tunes within its x10 band).
    """
    return float(min(max(base_rho, 0.2 / sigma), 2000.0))


def run_noise_sweep(grid):
    """Relative error against sigma under the ball solver; returns (cells, fit).

    Noise is normalized per trial: ||eps|| = sigma * sqrt(sum_i ||X_i||_F^2),
    the ball radius is eta = ||eps||, and SNR is
    10 log10(sum_i ||X_i||_F^2 / ||eps||^2) = -20 log10(sigma) exactly.
    Per-cell error in dB uses the amplitude convention
    20 log10(mean relative error), so an error floor proportional to eta
    appears as a line of slope -1 against the SNR axis.
    """
    _expect_axes(grid, ("sigma",))
    if grid.L is None:
        raise ConfigError("noise sweep needs a fixed L on the grid")
    dims = grid.base_dims
    max_kn = max(max(k, n) for k, n in dims)
    r = len(dims)

    def make_builder(grid, coords):
        sigma = float(coords["sigma"])
        if sigma <= 0:
            raise ConfigError("sigma must be positive, got %r" % (sigma,))

        def build(seed):
            # one draw; the noise is added as make_ensemble(..., eta=eps)
            # adds it, since eps needs the truth norms
            ens = make_ensemble(
                grid.L, dims, b_kind=grid.b_kind, a_kind=grid.a_kind, eta=0.0, seed=seed
            )
            xnorm_sq = sum(
                float(np.vdot(h, h).real) * float(np.vdot(x, x).real)
                for h, x in ens.truth
            )
            eps = sigma * math.sqrt(xnorm_sq)
            ens = replace(ens, y=add_noise(ens.y, eps, ens.seed), eta=float(eps))
            cfg = replace(
                grid.solver,
                mode=BALL,
                eta=eps,
                rho=_noise_rho(sigma, grid.solver.rho),
                rho_adapt=True,
            )

            def post(ens, rep):
                lmin2, lmax2 = gram_spectrum(ens)
                ratio = math.sqrt(lmax2 / lmin2) if lmin2 > 0 else float("inf")
                err_over_eta = float(rep.rel_error) / sigma
                c_fit = err_over_eta / (ratio * r * math.sqrt(max_kn))
                return {
                    "snr_db": -20.0 * math.log10(sigma),
                    "err_over_eta": err_over_eta,
                    "lam_ratio": ratio,
                    "c_fit": c_fit,
                }

            return ens, cfg, post

        return build

    def cell_extra(grid, coords, rows):
        sigma = float(coords["sigma"])
        mean_rel = _finite_mean(t.rel_error for t in rows)
        # Amplitude convention on both axes: the relative error is a ratio
        # of norms, so its decibel value is 20 log10, matching the energy
        # SNR 10 log10(||X||^2/||eps||^2).  A linear-in-eta error floor
        # then shows up as a slope of -1, which is the advertised check.
        err_db = 20.0 * math.log10(mean_rel) if mean_rel > 0 else float("nan")
        return {
            "snr_db": -20.0 * math.log10(sigma),
            "err_db": err_db,
            "mean_err_over_eta": _finite_mean(
                t.extra.get("err_over_eta", float("nan")) for t in rows
            ),
            "c_max": max(
                (t.extra["c_fit"] for t in rows if math.isfinite(t.extra.get("c_fit", float("nan")))),
                default=float("nan"),
            ),
        }

    cells = _run_grid(grid, make_builder, cell_extra)
    return cells, noise_fit(cells)


def noise_fit(cells):
    """Recompute the error-vs-SNR line from per-cell aggregates."""
    pts = [
        (c.extra["snr_db"], c.extra["err_db"])
        for c in cells
        if math.isfinite(c.extra.get("err_db", float("nan")))
    ]
    if len(pts) < 2:
        raise ConfigError("noise fit needs at least two cells with finite error")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_sq = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else float("nan")
    c_vals = [
        c.extra["c_max"]
        for c in cells
        if math.isfinite(c.extra.get("c_max", float("nan")))
    ]
    return NoiseFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_sq,
        c_max=max(c_vals) if c_vals else float("nan"),
        n_cells=len(cells),
    )


def run_experiment(grid):
    """Dispatch on grid.name; returns (cells, fit) with fit None except for noise."""
    if grid.name == PHASE_LR:
        return run_phase_lr(grid), None
    if grid.name == PHASE_KN:
        return run_phase_kn(grid), None
    if grid.name == MU_H:
        return run_mu_h_sweep(grid), None
    return run_noise_sweep(grid)


# ----------------------------------------------------------------------
# Default grids


def _phase_solver():
    # Solves away from the phase boundary finish in a few hundred
    # iterations at these sizes, but near-boundary successes can need a
    # few thousand; the cap only exists to keep a rare stalled cell from
    # dragging a grid to the full 20000-iteration default.
    return SolverConfig(max_iters=10000)


def phase_lr_grid(
    profile=DESK,
    a_kind=GAUSSIAN,
    L_values=None,
    r_values=None,
    trials=10,
    seed=0,
    threads=1,
    outdir=None,
    solver=None,
):
    """The (L, r) grid: Gaussian (30, 25) dims or Hadamard (15, 15)."""
    if a_kind == RAND_HADAMARD:
        dims = ((15, 15),)
        Ls = (64, 128, 256) if profile == DESK else (64, 128, 256, 512)
        rs = (1, 2, 3) if profile == DESK else tuple(range(1, 19))
    else:
        dims = ((30, 25),)
        Ls = (50, 100, 150, 200, 250, 300) if profile == DESK else tuple(range(50, 801, 50))
        rs = (1, 2, 3) if profile == DESK else tuple(range(1, 8))
    Ls = tuple(int(v) for v in (L_values if L_values is not None else Ls))
    rs = tuple(int(v) for v in (r_values if r_values is not None else rs))
    if a_kind == RAND_HADAMARD:
        for L in Ls:
            if L & (L - 1):
                raise ConfigError("Hadamard coding needs power-of-two L, got %d" % L)
    return ExperimentGrid(
        name=PHASE_LR,
        axes=(("L", Ls), ("r", rs)),
        trials=trials,
        a_kind=a_kind,
        base_dims=dims,
        seed=seed,
        solver=solver if solver is not None else _phase_solver(),
        threads=threads,
        outdir=outdir,
        profile=profile,
    )


def phase_kn_grid(
    profile=DESK,
    a_kind=GAUSSIAN,
    K_values=None,
    N_values=None,
    L=128,
    r=2,
    trials=10,
    seed=0,
    threads=1,
    outdir=None,
    solver=None,
):
    """The fixed-L (K, N) grid, r users with identical dims per cell."""
    Ks = (5, 15, 25, 35) if profile == DESK else tuple(range(5, 51, 5))
    Ns = Ks
    Ks = tuple(int(v) for v in (K_values if K_values is not None else Ks))
    Ns = tuple(int(v) for v in (N_values if N_values is not None else Ns))
    return ExperimentGrid(
        name=PHASE_KN,
        axes=(("K", Ks), ("N", Ns)),
        trials=trials,
        a_kind=a_kind,
        base_dims=((max(Ks), max(Ns)),),
        L=int(L),
        r=int(r),
        seed=seed,
        solver=solver if solver is not None else _phase_solver(),
        threads=threads,
        outdir=outdir,
        profile=profile,
    )


def mu_h_grid(
    profile=DESK,
    L_values=None,
    m_values=None,
    trials=10,
    seed=0,
    threads=1,
    outdir=None,
    solver=None,
):
    """The (L, m) grid for ones-type impulse responses (r=1, K=N=30)."""
    Ls = (50, 100, 150, 200, 250, 300) if profile == DESK else tuple(range(50, 501, 50))
    ms = (3, 15, 30) if profile == DESK else tuple(range(3, 31, 3))
    Ls = tuple(int(v) for v in (L_values if L_values is not None else Ls))
    ms = tuple(int(v) for v in (m_values if m_values is not None else ms))
    return ExperimentGrid(
        name=MU_H,
        axes=(("L", Ls), ("m", ms)),
        trials=trials,
        base_dims=((30, 30),),
        r=1,
        seed=seed,
        solver=solver if solver is not None else _phase_solver(),
        threads=threads,
        outdir=outdir,
        profile=profile,
    )


def noise_grid(
    profile_name="gaussian-r3",
    profile=DESK,
    sigmas=None,
    trials=10,
    seed=0,
    threads=1,
    outdir=None,
    solver=None,
):
    """A noise sweep over sigma for one of the named profiles."""
    if profile_name not in NOISE_PROFILES:
        raise ConfigError(
            "unknown noise profile %r; choose from %r"
            % (profile_name, tuple(NOISE_PROFILES))
        )
    conf = NOISE_PROFILES[profile_name]
    if sigmas is None:
        sigmas = DEFAULT_SIGMAS if profile == DESK else FULL_SIGMAS
    sigmas = tuple(float(s) for s in sigmas)
    return ExperimentGrid(
        name=NOISE,
        axes=(("sigma", sigmas),),
        trials=trials,
        a_kind=conf["a_kind"],
        base_dims=conf["dims"],
        L=conf["L"],
        seed=seed,
        solver=solver if solver is not None else SolverConfig(),
        threads=threads,
        outdir=outdir,
        profile=profile,
    )


# ----------------------------------------------------------------------
# Persistence: CSV, SVG, config logging


_TRIAL_BASE_FIELDS = (
    "trial",
    "seed",
    "success",
    "rel_error",
    "iters",
    "wall_ms",
    "converged",
    "reason",
)
_TRIAL_EXTRA_FIELDS = {
    NOISE: ("snr_db", "err_over_eta", "lam_ratio", "c_fit"),
    MU_H: ("mu2_branch",),
}
_SUMMARY_BASE_FIELDS = (
    "trials",
    "successes",
    "fraction",
    "mean_rel_error",
    "mean_iters",
    "wall_ms",
)
_SUMMARY_EXTRA_FIELDS = {
    NOISE: ("snr_db", "err_db", "mean_err_over_eta", "c_max"),
    MU_H: ("mu2_branch",),
}


def _fmt(value):
    f = float(value)
    if f == int(f) and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def trial_fields(grid):
    """Per-trial CSV header for this grid (stable per experiment)."""
    return ("experiment",) + grid.axis_names + _TRIAL_BASE_FIELDS + _TRIAL_EXTRA_FIELDS.get(grid.name, ())


def summary_fields(grid):
    """Per-cell summary CSV header for this grid."""
    return (
        ("experiment",)
        + grid.axis_names
        + _SUMMARY_BASE_FIELDS
        + _SUMMARY_EXTRA_FIELDS.get(grid.name, ())
    )


def write_trials_csv(path, grid, cells):
    """One row per (cell, trial): the raw Monte-Carlo record."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(trial_fields(grid))
        for cell in cells:
            for t in cell.trials:
                row = [t.experiment]
                row += [_fmt(v) for _, v in t.coords]
                row += [
                    str(t.trial),
                    str(t.seed),
                    str(int(t.success)),
                    repr(float(t.rel_error)),
                    str(int(t.iterations)),
                    repr(float(t.wall_ms)),
                    str(int(t.converged)),
                    t.reason,
                ]
                for name in _TRIAL_EXTRA_FIELDS.get(grid.name, ()):
                    row.append(repr(float(t.extra.get(name, float("nan")))))
                w.writerow(row)


def write_summary_csv(path, grid, cells):
    """One row per cell.

    fraction is successes/trials; mean_rel_error averages the finite
    per-trial relative errors; mean_iters averages all iteration counts.
    Each value is recomputable from the per-trial CSV.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(summary_fields(grid))
        for cell in cells:
            row = [cell.experiment]
            row += [_fmt(v) for _, v in cell.coords]
            row += [
                str(cell.total),
                str(cell.success_count),
                repr(cell.fraction),
                repr(float(cell.mean_rel_error)),
                repr(float(cell.mean_iterations)),
                repr(float(cell.wall_ms)),
            ]
            for name in _SUMMARY_EXTRA_FIELDS.get(grid.name, ()):
                row.append(repr(float(cell.extra.get(name, float("nan")))))
            w.writerow(row)


def write_noise_fit_csv(path, fit):
    """The one-row slope/R-squared record for a noise sweep."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("slope", "intercept", "r_squared", "c_max", "n_cells"))
        w.writerow(
            (
                repr(fit.slope),
                repr(fit.intercept),
                repr(fit.r_squared),
                repr(fit.c_max),
                str(fit.n_cells),
            )
        )


def write_heatmap_svg(path, grid, cells, cell_px=36, title=None):
    """Hand-written SVG heatmap of success fractions (white=1, black=0).

    First axis runs left to right, second axis bottom to top, matching
    the usual phase-plot orientation.  No plotting dependency: the file
    is a flat grid of <rect> elements plus text labels.
    """
    if len(grid.axes) != 2:
        raise ConfigError("heatmap needs a two-axis grid, got %r" % (grid.axis_names,))
    xname, xs = grid.axes[0]
    yname, ys = grid.axes[1]
    frac = {tuple(v for _, v in c.coords): c.fraction for c in cells}
    ml, mt, mr, mb = 64, 34, 16, 52
    width = ml + cell_px * len(xs) + mr
    height = mt + cell_px * len(ys) + mb
    if title is None:
        title = "%s success fraction (white = 1.0)" % grid.name
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect x="0" y="0" width="%d" height="%d" fill="white"/>' % (width, height),
        '<text x="%d" y="20" font-family="sans-serif" font-size="13" fill="black">%s</text>'
        % (ml, title),
    ]
    for yi, yv in enumerate(ys):
        for xi, xv in enumerate(xs):
            value = frac.get((xv, yv))
            if value is None:
                continue
            shade = int(round(255 * value))
            x = ml + xi * cell_px
            y = mt + (len(ys) - 1 - yi) * cell_px
            parts.append(
                '<rect x="%d" y="%d" width="%d" height="%d" fill="rgb(%d,%d,%d)" '
                'stroke="rgb(128,128,128)" stroke-width="0.5"><title>%s=%s %s=%s: %.2f</title></rect>'
                % (x, y, cell_px, cell_px, shade, shade, shade,
                   xname, _fmt(xv), yname, _fmt(yv), value)
            )
    for xi, xv in enumerate(xs):
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="black" '
            'text-anchor="middle">%s</text>'
            % (ml + xi * cell_px + cell_px // 2, mt + len(ys) * cell_px + 14, _fmt(xv))
        )
    for yi, yv in enumerate(ys):
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="10" fill="black" '
            'text-anchor="end">%s</text>'
            % (ml - 6, mt + (len(ys) - 1 - yi) * cell_px + cell_px // 2 + 4, _fmt(yv))
        )
    parts.append(
        '<text x="%d" y="%d" font-family="sans-serif" font-size="11" fill="black" '
        'text-anchor="middle">%s</text>'
        % (ml + cell_px * len(xs) // 2, height - 8, xname)
    )
    parts.append(
        '<text x="12" y="%d" font-family="sans-serif" font-size="11" fill="black">%s</text>'
        % (mt + cell_px * len(ys) // 2, yname)
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def grid_config(grid):
    """Flat key/value view of a grid (solver knobs included) for run logs."""
    out = {
        "experiment": grid.name,
        "trials": str(grid.trials),
        "b_kind": grid.b_kind,
        "a_kind": grid.a_kind,
        "base_dims": ",".join("%dx%d" % (k, n) for k, n in grid.base_dims),
        "L": "" if grid.L is None else str(grid.L),
        "r": "" if grid.r is None else str(grid.r),
        "seed": str(grid.seed),
        "threads": str(grid.threads),
        "outdir": grid.outdir or "",
        "profile": grid.profile,
    }
    for name, vals in grid.axes:
        out["axis_" + name] = ",".join(_fmt(v) for v in vals)
    for f in dataclass_fields(SolverConfig):
        out["solver_" + f.name] = str(getattr(grid.solver, f.name))
    return out


# ----------------------------------------------------------------------
# Properties of a finished run


def l_monotonicity_violations(cells, axis="L", jitter=0.2):
    """Cells whose success fraction drops by more than `jitter` when the
    given axis takes one step up with all other coordinates fixed.

    Success is monotone in the measurement count up to Monte-Carlo
    noise, so a run of the (L, r) grid should return an empty list.
    """
    groups = {}
    for cell in cells:
        key = tuple((n, v) for n, v in cell.coords if n != axis)
        val = dict(cell.coords).get(axis)
        if val is None:
            raise ConfigError("no axis %r in cell coordinates" % (axis,))
        groups.setdefault(key, []).append((float(val), cell.fraction))
    bad = []
    for key, seq in groups.items():
        seq.sort()
        for (v0, f0), (v1, f1) in zip(seq, seq[1:]):
            if f1 < f0 - jitter - 1e-12:
                bad.append({"fixed": key, axis: (v0, v1), "drop": f0 - f1})
    return bad
