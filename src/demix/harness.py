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

One table, EXPERIMENT_TABLE, describes each experiment with top-level
functions: its axes, how a trial draws its instance and solver config,
the extra per-trial and per-cell CSV columns, and its CLI flags.  An
ExperimentGrid is checked against its row, axis values included, when
it is built, so a bad grid fails before any trial runs.

run_experiment runs each cell's `trials` independent instances.  A trial
is the plain task (grid, coords, trial, seed) run by _one_trial; seeds are
pre-split from (grid seed, experiment, cell coordinates, trial index)
before any work is scheduled, so the thread count and scheduling order
never change a reported number; the wall_ms columns are timing
measurements and are the only run-dependent output.  A trial succeeds
when the lifted relative error stays below 1e-3 and the solver converged;
non-convergence or a raised solver error counts as a recovery failure and
carries a reason flag in the per-trial CSV.

Desk-scale default grids keep runtimes small; profile="full" switches to
the full-size grids.  Both profiles emit identical CSV schemas.
"""

import csv
import itertools
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields as dataclass_fields, replace

import numpy as np

from .ensemble import (
    A_KINDS,
    B_KINDS,
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

# Each noise profile is the grid keywords it fixes.
NOISE_PROFILES = {
    "gaussian-r3": dict(L=256, base_dims=((20, 20), (25, 25), (20, 20)), a_kind=GAUSSIAN),
    "hadamard-r15": dict(L=512, base_dims=((15, 10),) * 15, a_kind=RAND_HADAMARD),
}
DEFAULT_NOISE_PROFILE = "gaussian-r3"

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

    Construction checks the grid against the experiment's EXPERIMENT_TABLE
    row (axis names, fixed L, single template), the B and A kinds, and
    every axis and fixed value (L, r, K, N, m positive integers with
    m <= K, power-of-two L under Hadamard coding, sigma finite and
    positive), so a bad grid raises ConfigError before any trial runs.
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
    profile: str = DESK

    def __post_init__(self):
        spec = EXPERIMENT_TABLE.get(self.name)
        if spec is None:
            raise ConfigError(
                "unknown experiment %r; choose from %r" % (self.name, EXPERIMENTS)
            )
        if self.trials < 1:
            raise ConfigError("trials must be at least 1, got %r" % (self.trials,))
        if self.threads < 1:
            raise ConfigError("threads must be at least 1, got %r" % (self.threads,))
        if self.profile not in PROFILES:
            raise ConfigError(
                "profile must be one of %r, got %r" % (PROFILES, self.profile)
            )
        for name, kinds in (("b_kind", B_KINDS), ("a_kind", A_KINDS)):
            if getattr(self, name) not in kinds:
                raise ConfigError("%s %s must be one of %r, got %r"
                                  % (self.name, name, kinds, getattr(self, name)))
        dims = tuple((int(k), int(n)) for k, n in self.base_dims)
        object.__setattr__(self, "base_dims", dims)
        if spec.template and len(dims) != 1:
            raise ConfigError(
                "%s uses a single (K, N) template, got %r" % (self.name, dims)
            )
        names = tuple(n for n, _ in self.axes)
        if names != spec.axes:
            raise ConfigError(
                "%s grid needs axes %r, got %r" % (self.name, spec.axes, names)
            )
        if "L" not in names and self.L is None:
            raise ConfigError("%s needs a fixed L on the grid" % self.name)
        for name in ("L", "r"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _coordinate(self, name, value))
        for n, vals in self.axes:
            if not vals:
                raise ConfigError("%s %s must be non-empty: the grid is empty"
                                  % (self.name, n))
        axes = tuple((n, tuple(_coordinate(self, n, v) for v in vals)) for n, vals in self.axes)
        object.__setattr__(self, "axes", axes)

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


def _coordinate(grid, name, value):
    """value checked as an axis or fixed coordinate: an int count or a float sigma."""
    positive = isinstance(value, numbers.Real) and math.isfinite(value) and value > 0
    if name == "sigma":
        if positive:
            return float(value)
        need = "finite and positive"
    elif not (positive and float(value).is_integer()):
        need = "a positive integer"
    elif name == "m" and value > grid.base_dims[0][0]:
        need = "in [1, K=%d]" % grid.base_dims[0][0]
    elif name == "L" and grid.a_kind == RAND_HADAMARD and int(value) & (int(value) - 1):
        need = "a power of two under Hadamard coding"
    else:
        return int(value)
    raise ConfigError("%s %s must be %s, got %r" % (grid.name, name, need, value))


@dataclass
class TrialResult:
    """One solve inside one cell; the defaults are a trial that raised."""

    experiment: str
    coords: tuple
    trial: int
    seed: int
    success: bool = False
    converged: bool = False
    rel_error: float = math.nan
    iterations: int = 0
    wall_ms: float = 0.0
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


def _finite_max(values):
    return max((v for v in values if math.isfinite(v)), default=math.nan)


def _one_trial(grid, coords, trial, seed):
    """Draw, solve and score the trial (grid, coords, trial, seed).

    The task is plain picklable data: the experiment's table row supplies
    the instance and the extras, looked up by grid.name.
    """
    spec = EXPERIMENT_TABLE[grid.name]
    at = dict(coords)
    t0 = time.perf_counter()
    row = TrialResult(experiment=grid.name, coords=coords, trial=trial, seed=seed)
    try:
        ens, cfg = spec.instance(grid, at, seed)
        rep = solve(ens, cfg)
        row.extra = spec.trial_extra(grid, at, ens, rep)
    except _TRIAL_ERRORS as exc:
        row.reason = type(exc).__name__
    else:
        row.success = bool(rep.success) and rep.converged
        row.converged = rep.converged
        row.rel_error = float(rep.rel_error)
        row.iterations = int(rep.iterations)
        row.reason = "" if rep.converged else "no-converge"
    row.wall_ms = (time.perf_counter() - t0) * 1e3
    return row


def run_experiment(grid):
    """Run every (cell, trial) task of the grid; returns (cells, fit).

    A task is the tuple (grid, coords, trial, seed), its seed split before
    anything is scheduled, so threads > 1 runs the same tasks on a thread
    pool without changing a reported number.  Rows merge per cell in task
    (= trial) order.  fit is the experiment's fit record (noise) or None.
    """
    spec = EXPERIMENT_TABLE[grid.name]
    cells = grid.cells()
    tasks = [(grid, c, t, trial_seed(grid, c, t)) for c in cells for t in range(grid.trials)]
    columns = zip(*tasks)
    if grid.threads == 1:
        rows = list(map(_one_trial, *columns))
    else:
        with ThreadPoolExecutor(max_workers=grid.threads) as pool:
            rows = list(pool.map(_one_trial, *columns))
    out = []
    for i, coords in enumerate(cells):
        mine = tuple(rows[i * grid.trials : (i + 1) * grid.trials])
        out.append(
            CellResult(
                experiment=grid.name,
                coords=coords,
                trials=mine,
                success_count=sum(1 for t in mine if t.success),
                total=len(mine),
                mean_rel_error=_finite_mean(t.rel_error for t in mine),
                rel_errors=tuple(t.rel_error for t in mine),
                mean_iterations=_finite_mean(float(t.iterations) for t in mine),
                wall_ms=float(sum(t.wall_ms for t in mine)),
                extra=spec.cell_extra(grid, dict(coords), mine),
            )
        )
    return out, (spec.fit(out) if spec.fit else None)


# ----------------------------------------------------------------------
# The four experiments: instances and extras (see ExperimentSpec)


def _no_extra(*_):
    return {}


def _draw(grid, L, dims, seed, truth=None):
    """A noiseless instance with the grid's B and A families."""
    return make_ensemble(
        L, dims, b_kind=grid.b_kind, a_kind=grid.a_kind, eta=0.0, seed=seed, truth=truth
    )


def _phase_instance(grid, at, seed):
    """Noiseless equality instance of r users with one (K, N) (phase-lr, phase-kn).

    L, r, K and N come from the cell where they are axes and from the
    grid where they are fixed; a phase-kn grid without r runs two users.
    """
    K, N = (at["K"], at["N"]) if "K" in at else grid.base_dims[0]
    r = at.get("r") or grid.r or 2
    return _draw(grid, at.get("L") or grid.L, ((K, N),) * r, seed), grid.solver


def _mu_h_instance(grid, at, seed):
    """One user whose h has its first m entries equal to one.

    The coherence branch value L max_l |<b_l, h>|^2 / ||h||^2 then equals
    m for every L.  The x side of the truth is drawn exactly as the plain
    random truth would be, so only h is pinned.
    """
    K, N = grid.base_dims[0]
    h = np.zeros(K)
    h[: at["m"]] = 1.0
    x = substream(seed, TAG_X, 0).standard_normal(N)
    return _draw(grid, at["L"], ((K, N),), seed, truth=[(h, x)]), grid.solver


def _mu_h_trial_extra(grid, at, ens, rep):
    return {"mu2_branch": mu_h(ens, return_branches=True)[2]}


def _mu_h_cell_extra(grid, at, rows):
    return {"mu2_branch": _finite_mean(t.extra.get("mu2_branch", math.nan) for t in rows)}


def _noise_instance(grid, at, seed):
    """One ball-solver trial at noise level sigma.

    Noise is normalized per trial: ||eps|| = sigma * sqrt(sum_i ||X_i||_F^2),
    the ball radius is eta = ||eps||, and SNR is
    10 log10(sum_i ||X_i||_F^2 / ||eps||^2) = -20 log10(sigma) exactly.
    The instance is drawn once; the noise is added as
    make_ensemble(..., eta=eps) adds it, since eps needs the truth norms.
    """
    sigma = at["sigma"]
    ens = _draw(grid, grid.L, grid.base_dims, seed)
    xnorm_sq = sum(
        float(np.vdot(h, h).real) * float(np.vdot(x, x).real) for h, x in ens.truth
    )
    eps = sigma * math.sqrt(xnorm_sq)
    ens = replace(ens, y=add_noise(ens.y, eps, ens.seed), eta=float(eps))
    return ens, replace(grid.solver, mode=BALL, eta=eps)


def _noise_trial_extra(grid, at, ens, rep):
    sigma = at["sigma"]
    r = len(grid.base_dims)
    max_kn = max(max(k, n) for k, n in grid.base_dims)
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


def _noise_cell_extra(grid, at, rows):
    """Per-cell error in dB, 20 log10(mean relative error).

    Amplitude convention on both axes: the relative error is a ratio of
    norms, so its decibel value is 20 log10, matching the energy SNR
    10 log10(||X||^2/||eps||^2).  A linear-in-eta error floor then shows
    up as a slope of -1 against the SNR axis, which is the advertised
    check.
    """
    mean_rel = _finite_mean(t.rel_error for t in rows)
    return {
        "snr_db": -20.0 * math.log10(at["sigma"]),
        "err_db": 20.0 * math.log10(mean_rel) if mean_rel > 0 else float("nan"),
        "mean_err_over_eta": _finite_mean(t.extra.get("err_over_eta", math.nan) for t in rows),
        "c_max": _finite_max(t.extra.get("c_fit", math.nan) for t in rows),
    }


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
    return NoiseFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_sq,
        c_max=_finite_max(c.extra.get("c_max", math.nan) for c in cells),
        n_cells=len(cells),
    )


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
    Ls = L_values if L_values is not None else Ls
    rs = r_values if r_values is not None else rs
    return ExperimentGrid(
        name=PHASE_LR,
        axes=(("L", Ls), ("r", rs)),
        trials=trials,
        a_kind=a_kind,
        base_dims=dims,
        seed=seed,
        solver=solver if solver is not None else _phase_solver(),
        threads=threads,
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
    solver=None,
):
    """The fixed-L (K, N) grid, r users with identical dims per cell."""
    Ks = (5, 15, 25, 35) if profile == DESK else tuple(range(5, 51, 5))
    Ns = N_values if N_values is not None else Ks
    Ks = K_values if K_values is not None else Ks
    return ExperimentGrid(
        name=PHASE_KN,
        axes=(("K", Ks), ("N", Ns)),
        trials=trials,
        a_kind=a_kind,
        base_dims=((max(Ks, default=1), max(Ns, default=1)),),  # empty: ExperimentGrid raises
        L=L,
        r=r,
        seed=seed,
        solver=solver if solver is not None else _phase_solver(),
        threads=threads,
        profile=profile,
    )


def mu_h_grid(
    profile=DESK,
    L_values=None,
    m_values=None,
    trials=10,
    seed=0,
    threads=1,
    solver=None,
):
    """The (L, m) grid for ones-type impulse responses (r=1, K=N=30)."""
    Ls = (50, 100, 150, 200, 250, 300) if profile == DESK else tuple(range(50, 501, 50))
    ms = (3, 15, 30) if profile == DESK else tuple(range(3, 31, 3))
    Ls = L_values if L_values is not None else Ls
    ms = m_values if m_values is not None else ms
    return ExperimentGrid(
        name=MU_H,
        axes=(("L", Ls), ("m", ms)),
        trials=trials,
        base_dims=((30, 30),),
        r=1,
        seed=seed,
        solver=solver if solver is not None else _phase_solver(),
        threads=threads,
        profile=profile,
    )


def noise_grid(
    profile_name=None,
    profile=DESK,
    sigmas=None,
    trials=10,
    seed=0,
    threads=1,
    solver=None,
):
    """A noise sweep over sigma for one of the named profiles (None:
    DEFAULT_NOISE_PROFILE)."""
    if profile_name is None:
        profile_name = DEFAULT_NOISE_PROFILE
    if profile_name not in NOISE_PROFILES:
        raise ConfigError(
            "unknown noise profile %r; choose from %r"
            % (profile_name, tuple(NOISE_PROFILES))
        )
    if sigmas is None:
        sigmas = DEFAULT_SIGMAS if profile == DESK else FULL_SIGMAS
    return ExperimentGrid(
        name=NOISE,
        axes=(("sigma", sigmas),),
        trials=trials,
        seed=seed,
        solver=solver if solver is not None else SolverConfig(),
        threads=threads,
        profile=profile,
        **NOISE_PROFILES[profile_name],
    )


# ----------------------------------------------------------------------
# The experiment table


@dataclass(frozen=True)
class ExperimentSpec:
    """One EXPERIMENT_TABLE row: how a named experiment draws, scores and reports.

    axes are the grid's axis names in order; an experiment without an L
    axis holds L fixed on the grid.  instance(grid, at, seed) -> (ens, cfg)
    draws one trial, `at` mapping each axis name to the cell's value;
    trial_extra(grid, at, ens, rep) and cell_extra(grid, at, rows) return
    exactly the trial_fields and summary_fields CSV columns.  fit, when
    set, turns the finished cells into the run's fit record.  template
    marks a grid that replicates one (K, N) pair.  make_grid is the
    default-grid factory, and flags maps each CLI flag the experiment
    takes to the factory keyword it sets.
    """

    axes: tuple
    instance: object
    make_grid: object
    flags: dict
    trial_extra: object = _no_extra
    cell_extra: object = _no_extra
    trial_fields: tuple = ()
    summary_fields: tuple = ()
    fit: object = None
    template: bool = True


EXPERIMENT_TABLE = {
    PHASE_LR: ExperimentSpec(
        axes=("L", "r"),
        instance=_phase_instance,
        make_grid=phase_lr_grid,
        flags={"a": "a_kind", "L": "L_values", "r": "r_values"},
    ),
    PHASE_KN: ExperimentSpec(
        axes=("K", "N"),
        instance=_phase_instance,
        make_grid=phase_kn_grid,
        flags={"a": "a_kind", "L": "L", "r": "r", "K": "K_values", "N": "N_values"},
        template=False,
    ),
    MU_H: ExperimentSpec(
        axes=("L", "m"),
        instance=_mu_h_instance,
        make_grid=mu_h_grid,
        flags={"L": "L_values", "m": "m_values"},
        trial_extra=_mu_h_trial_extra,
        cell_extra=_mu_h_cell_extra,
        trial_fields=("mu2_branch",),
        summary_fields=("mu2_branch",),
    ),
    NOISE: ExperimentSpec(
        axes=("sigma",),
        instance=_noise_instance,
        make_grid=noise_grid,
        flags={"profile": "profile_name", "sigma": "sigmas"},
        trial_extra=_noise_trial_extra,
        cell_extra=_noise_cell_extra,
        trial_fields=("snr_db", "err_over_eta", "lam_ratio", "c_fit"),
        summary_fields=("snr_db", "err_db", "mean_err_over_eta", "c_max"),
        fit=noise_fit,
        template=False,
    ),
}


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
_SUMMARY_BASE_FIELDS = (
    "trials",
    "successes",
    "fraction",
    "mean_rel_error",
    "mean_iters",
    "wall_ms",
)


def _fmt(value):
    f = float(value)
    if f == int(f) and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def trial_fields(grid):
    """Per-trial CSV header for this grid (stable per experiment)."""
    extra = EXPERIMENT_TABLE[grid.name].trial_fields
    return ("experiment",) + grid.axis_names + _TRIAL_BASE_FIELDS + extra


def summary_fields(grid):
    """Per-cell summary CSV header for this grid."""
    extra = EXPERIMENT_TABLE[grid.name].summary_fields
    return ("experiment",) + grid.axis_names + _SUMMARY_BASE_FIELDS + extra


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _csv_row(record, values, extra_fields):
    """A trial or cell: experiment, coordinates, its values, then its extras."""
    row = [record.experiment] + [_fmt(v) for _, v in record.coords] + values
    return row + [repr(float(record.extra.get(name, math.nan))) for name in extra_fields]


def write_trials_csv(path, grid, cells):
    """One row per (cell, trial): the raw Monte-Carlo record."""
    extra = EXPERIMENT_TABLE[grid.name].trial_fields
    rows = []
    for t in itertools.chain.from_iterable(cell.trials for cell in cells):
        values = [str(t.trial), str(t.seed), str(int(t.success)), repr(float(t.rel_error)),
                  str(int(t.iterations)), repr(float(t.wall_ms)), str(int(t.converged)),
                  t.reason]
        rows.append(_csv_row(t, values, extra))
    _write_csv(path, trial_fields(grid), rows)


def write_summary_csv(path, grid, cells):
    """One row per cell.

    fraction is successes/trials; mean_rel_error averages the finite
    per-trial relative errors; mean_iters averages all iteration counts.
    Each value is recomputable from the per-trial CSV.
    """
    extra = EXPERIMENT_TABLE[grid.name].summary_fields
    rows = []
    for cell in cells:
        values = [str(cell.total), str(cell.success_count), repr(cell.fraction),
                  repr(float(cell.mean_rel_error)), repr(float(cell.mean_iterations)),
                  repr(float(cell.wall_ms))]
        rows.append(_csv_row(cell, values, extra))
    _write_csv(path, summary_fields(grid), rows)


def write_noise_fit_csv(path, fit):
    """The one-row slope/R-squared record for a noise sweep."""
    names = [f.name for f in dataclass_fields(NoiseFit)]
    _write_csv(path, names, [[repr(getattr(fit, name)) for name in names]])


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
