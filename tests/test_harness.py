import csv
import math
import pickle
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import demix
from demix import cli
from demix import harness as hz
from demix.errors import ConfigError


def _tiny_phase_lr(trials=3, threads=1, seed=11):
    return hz.phase_lr_grid(
        L_values=(50, 100), r_values=(1,), trials=trials, threads=threads, seed=seed
    )


def _strip_timing(rows, header):
    drop = {i for i, name in enumerate(header) if name == "wall_ms"}
    return [[v for i, v in enumerate(row) if i not in drop] for row in rows]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_grid_validation():
    with pytest.raises(ConfigError):
        hz.ExperimentGrid(name="phase-xy", axes=(("L", (50,)),))
    with pytest.raises(ConfigError):
        hz.ExperimentGrid(name=hz.PHASE_LR, axes=(("L", ()), ("r", (1,))))
    with pytest.raises(ConfigError):
        hz.ExperimentGrid(name=hz.PHASE_LR, axes=(("L", (50,)), ("r", (1,))), trials=0)
    with pytest.raises(ConfigError):
        hz.ExperimentGrid(name=hz.PHASE_LR, axes=(("L", (50,)), ("r", (1,))), threads=0)
    with pytest.raises(ConfigError):
        hz.ExperimentGrid(
            name=hz.PHASE_LR, axes=(("L", (50,)), ("r", (1,))), profile="huge"
        )
    with pytest.raises(ConfigError):
        hz.phase_lr_grid(a_kind=demix.RAND_HADAMARD, L_values=(96,))
    with pytest.raises(ConfigError):
        hz.noise_grid("bogus-profile")
    # wrong axes for the requested experiment
    with pytest.raises(ConfigError):
        grid = hz.ExperimentGrid(name=hz.PHASE_LR, axes=(("K", (5,)), ("N", (5,))))
        hz.run_experiment(grid)


def test_hadamard_grid_power_of_two():
    grid = hz.phase_lr_grid(a_kind=demix.RAND_HADAMARD)
    Ls = dict(grid.axes)["L"]
    assert all(L & (L - 1) == 0 for L in Ls)
    full = hz.phase_lr_grid(a_kind=demix.RAND_HADAMARD, profile=hz.FULL)
    assert dict(full.axes)["L"] == (64, 128, 256, 512)
    assert grid.base_dims == ((15, 15),)


def test_trial_seed_is_coordinate_keyed():
    grid = _tiny_phase_lr()
    c0, c1 = grid.cells()[0], grid.cells()[1]
    assert hz.trial_seed(grid, c0, 0) == hz.trial_seed(grid, c0, 0)
    assert hz.trial_seed(grid, c0, 0) != hz.trial_seed(grid, c0, 1)
    assert hz.trial_seed(grid, c0, 0) != hz.trial_seed(grid, c1, 0)
    # the experiment name is part of the stream key
    mu = hz.mu_h_grid(L_values=(50,), m_values=(1,), trials=1)
    kn = hz.phase_kn_grid(K_values=(50,), N_values=(1,), trials=1)
    assert hz.trial_seed(mu, mu.cells()[0], 0) != hz.trial_seed(kn, kn.cells()[0], 0)
    # float axis values key the stream exactly
    ns = hz.noise_grid(sigmas=(0.5, 0.05), trials=1)
    s0, s1 = ns.cells()
    assert hz.trial_seed(ns, s0, 0) != hz.trial_seed(ns, s1, 0)


def test_phase_lr_boundary_cells():
    # r=1: L=100 sits above the empirical boundary, L=50 below it
    cells = hz.run_experiment(_tiny_phase_lr(trials=5, seed=21))[0]
    by_l = {dict(c.coords)["L"]: c for c in cells}
    assert by_l[100].fraction == 1.0
    assert by_l[50].fraction <= 0.2
    assert by_l[100].total == 5
    assert all(t.converged for t in by_l[100].trials)
    assert by_l[100].mean_rel_error < 1e-4
    assert math.isfinite(by_l[50].mean_rel_error)


def test_rerun_is_reproducible():
    grid = hz.phase_lr_grid(L_values=(100,), r_values=(1,), trials=1, seed=33)
    a = hz.run_experiment(grid)[0][0]
    b = hz.run_experiment(grid)[0][0]
    ta, tb = a.trials[0], b.trials[0]
    assert ta.seed == tb.seed
    assert ta.rel_error == tb.rel_error
    assert ta.iterations == tb.iterations
    assert ta.success == tb.success
    assert a.success_count == b.success_count


def test_threads_match_serial(tmp_path):
    serial = hz.run_experiment(_tiny_phase_lr(trials=4, threads=1, seed=44))[0]
    pooled = hz.run_experiment(_tiny_phase_lr(trials=4, threads=3, seed=44))[0]
    g1 = _tiny_phase_lr(trials=4, threads=1, seed=44)
    g3 = _tiny_phase_lr(trials=4, threads=3, seed=44)
    p1, p3 = tmp_path / "s.csv", tmp_path / "t.csv"
    hz.write_trials_csv(p1, g1, serial)
    hz.write_trials_csv(p3, g3, pooled)
    h1, rows1 = _read_csv(p1)
    h3, rows3 = _read_csv(p3)
    assert h1 == h3
    assert _strip_timing(rows1, h1) == _strip_timing(rows3, h3)


def test_phase_kn_deep_success():
    grid = hz.phase_kn_grid(K_values=(5,), N_values=(5,), trials=5, seed=7)
    cells = hz.run_experiment(grid)[0]
    assert len(cells) == 1
    assert cells[0].fraction == 1.0
    # fixed-L is mandatory for this experiment
    with pytest.raises(ConfigError):
        bad = hz.ExperimentGrid(name=hz.PHASE_KN, axes=(("K", (5,)), ("N", (5,))), L=None)
        hz.run_experiment(bad)


def test_mu_h_branch_value_and_min_l_trend():
    grid = hz.mu_h_grid(L_values=(80, 200), m_values=(3, 15), trials=2, seed=9)
    cells = hz.run_experiment(grid)[0]
    min_l = {}
    for c in cells:
        d = dict(c.coords)
        # the ones-family branch value is exactly m, independent of L
        assert abs(c.extra["mu2_branch"] - d["m"]) <= 1e-9 * d["m"]
        for t in c.trials:
            assert abs(t.extra["mu2_branch"] - d["m"]) <= 1e-9 * d["m"]
        if c.fraction >= 0.5:
            min_l[d["m"]] = min(min_l.get(d["m"], math.inf), d["L"])
    # minimal successful L grows with the coherence m
    lo = min_l.get(3, math.inf)
    hi = min_l.get(15, math.inf)
    assert lo <= hi
    assert lo == 200  # m=3 recovers at L=200 but not at L=80 at this scale
    with pytest.raises(ConfigError):
        hz.run_experiment(hz.mu_h_grid(L_values=(80,), m_values=(40,), trials=1))


def test_noise_sweep_tiny():
    grid = hz.noise_grid("gaussian-r3", sigmas=(0.5, 0.05), trials=2, seed=13)
    cells, fit = hz.run_experiment(grid)
    by_sigma = {dict(c.coords)["sigma"]: c for c in cells}
    for sigma, c in by_sigma.items():
        assert abs(c.extra["snr_db"] + 20 * math.log10(sigma)) < 1e-12
        assert math.isfinite(c.extra["err_db"])
        # linear-in-eta stability: error stays within a few multiples of eta
        assert 0.0 < c.extra["mean_err_over_eta"] < 10.0
        assert math.isfinite(c.extra["c_max"])
        for t in c.trials:
            assert t.extra["lam_ratio"] >= 1.0
            assert t.converged
    # errors an order of magnitude apart for sigmas an order apart
    ratio = by_sigma[0.5].mean_rel_error / by_sigma[0.05].mean_rel_error
    assert 3.0 < ratio < 30.0
    # two-point slope is shallower than the asymptotic -1 because the
    # sigma=0.5 point saturates near the signal scale
    assert -1.2 < fit.slope < -0.5
    assert fit.n_cells == 2
    assert math.isfinite(fit.c_max)
    # the fit is recomputable from the cells alone
    again = hz.noise_fit(cells)
    assert again.slope == fit.slope
    assert again.r_squared == fit.r_squared


def test_noise_sweep_draws_each_instance_once(monkeypatch):
    # the builder draws each trial's instance once and adds the noise as
    # make_ensemble(..., eta=eps) does: the same y, eta and seed, bit for bit
    grid = hz.noise_grid("gaussian-r3", sigmas=(0.5, 0.05), trials=1, seed=13)
    draws, solved = [], []
    make, solve = hz.make_ensemble, hz.solve
    monkeypatch.setattr(hz, "make_ensemble", lambda *a, **kw: draws.append(kw) or make(*a, **kw))
    monkeypatch.setattr(hz, "solve", lambda ens, cfg: solved.append((ens, cfg)) or solve(ens, cfg))
    hz.run_experiment(grid)
    assert len(draws) == len(solved) == 2
    for ens, cfg in solved:
        ref = demix.make_ensemble(grid.L, grid.base_dims, b_kind=grid.b_kind,
                                  a_kind=grid.a_kind, eta=cfg.eta, seed=ens.seed)
        assert np.array_equal(ens.y, ref.y)
        assert ens.eta == ref.eta == cfg.eta > 0 and ens.seed == ref.seed


def test_csv_roundtrip_recomputes_aggregates(tmp_path):
    grid = _tiny_phase_lr(trials=3, seed=17)
    cells = hz.run_experiment(grid)[0]
    tpath, spath = tmp_path / "trials.csv", tmp_path / "summary.csv"
    hz.write_trials_csv(tpath, grid, cells)
    hz.write_summary_csv(spath, grid, cells)
    theader, trows = _read_csv(tpath)
    sheader, srows = _read_csv(spath)
    assert theader == list(hz.trial_fields(grid))
    assert sheader == list(hz.summary_fields(grid))
    assert len(trows) == len(grid.cells()) * grid.trials
    assert len(srows) == len(grid.cells())
    ti = {name: i for i, name in enumerate(theader)}
    si = {name: i for i, name in enumerate(sheader)}
    for srow in srows:
        key = (srow[si["L"]], srow[si["r"]])
        mine = [t for t in trows if (t[ti["L"]], t[ti["r"]]) == key]
        assert len(mine) == int(srow[si["trials"]])
        succ = sum(int(t[ti["success"]]) for t in mine)
        assert succ == int(srow[si["successes"]])
        assert float(srow[si["fraction"]]) == succ / len(mine)
        rels = [float(t[ti["rel_error"]]) for t in mine]
        rels = [v for v in rels if math.isfinite(v)]
        assert float(srow[si["mean_rel_error"]]) == float(np.mean(rels))
        iters = [float(t[ti["iters"]]) for t in mine]
        assert float(srow[si["mean_iters"]]) == float(np.mean(iters))


def test_csv_schema_stable_across_profiles():
    desk = hz.phase_lr_grid(profile=hz.DESK)
    full = hz.phase_lr_grid(profile=hz.FULL)
    assert hz.trial_fields(desk) == hz.trial_fields(full)
    assert hz.summary_fields(desk) == hz.summary_fields(full)
    assert hz.trial_fields(desk)[:2] == ("experiment", "L")
    dn = hz.noise_grid(profile=hz.DESK)
    fn = hz.noise_grid(profile=hz.FULL)
    assert hz.trial_fields(dn) == hz.trial_fields(fn)
    assert "err_over_eta" in hz.trial_fields(dn)
    assert "mu2_branch" in hz.summary_fields(hz.mu_h_grid())


def _fake_cells(grid, fractions):
    cells = []
    for coords, frac in zip(grid.cells(), fractions):
        n = grid.trials
        k = int(round(frac * n))
        rows = tuple(
            hz.TrialResult(
                experiment=grid.name,
                coords=coords,
                trial=t,
                seed=t,
                success=t < k,
                converged=True,
                rel_error=1e-6 if t < k else 0.5,
                iterations=100,
                wall_ms=1.0,
            )
            for t in range(n)
        )
        cells.append(
            hz.CellResult(
                experiment=grid.name,
                coords=coords,
                trials=rows,
                success_count=k,
                total=n,
                mean_rel_error=1e-6,
                rel_errors=tuple(t.rel_error for t in rows),
                mean_iterations=100.0,
                wall_ms=float(n),
            )
        )
    return cells


def test_heatmap_svg(tmp_path):
    grid = hz.phase_lr_grid(L_values=(50, 100), r_values=(1, 2), trials=5)
    cells = _fake_cells(grid, [0.0, 0.0, 1.0, 0.6])
    path = tmp_path / "phase.svg"
    hz.write_heatmap_svg(path, grid, cells)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 1 + len(cells)  # background + one per cell
    fills = {e.get("fill") for e in rects}
    assert "rgb(255,255,255)" in fills  # full success is white
    assert "rgb(0,0,0)" in fills  # full failure is black
    with pytest.raises(ConfigError):
        hz.write_heatmap_svg(tmp_path / "x.svg", hz.noise_grid(), [])


def test_l_monotonicity_violations():
    grid = hz.phase_lr_grid(L_values=(50, 100, 150), r_values=(1,), trials=10)
    clean = _fake_cells(grid, [0.1, 0.9, 1.0])
    assert hz.l_monotonicity_violations(clean) == []
    jitter = _fake_cells(grid, [0.5, 0.4, 1.0])  # one-trial dip stays legal
    assert hz.l_monotonicity_violations(jitter) == []
    bad = _fake_cells(grid, [0.9, 0.2, 1.0])
    hits = hz.l_monotonicity_violations(bad)
    assert len(hits) == 1
    assert hits[0]["L"] == (50.0, 100.0)


def test_phase_lr_success_monotone_in_l():
    # a desk-scale slice of the Gaussian grid: fractions may only climb
    grid = hz.phase_lr_grid(
        L_values=(60, 90, 120, 150), r_values=(1,), trials=5, seed=77, threads=2
    )
    cells = hz.run_experiment(grid)[0]
    assert hz.l_monotonicity_violations(cells, jitter=0.2) == []
    fracs = [c.fraction for c in cells]
    assert fracs[-1] == 1.0  # L=150 is deep in the success region for r=1


def test_run_experiment_dispatch():
    grid = hz.phase_kn_grid(K_values=(5,), N_values=(5,), trials=2, seed=3)
    cells, fit = hz.run_experiment(grid)
    assert fit is None
    assert cells[0].total == 2
    noise = hz.noise_grid(sigmas=(0.5, 0.05), trials=1, seed=3)
    cells, fit = hz.run_experiment(noise)
    assert fit is not None
    assert fit.n_cells == 2


def test_grid_config_is_flat_and_complete():
    grid = hz.noise_grid("hadamard-r15", trials=4, seed=5, threads=2)
    conf = hz.grid_config(grid)
    assert conf["experiment"] == "noise"
    assert conf["L"] == "512"
    assert conf["a_kind"] == demix.RAND_HADAMARD
    assert conf["axis_sigma"].startswith("1,0.5,")
    assert conf["solver_mode"] == "equality"  # per-sigma ball configs derive from it
    assert all(isinstance(v, str) for v in conf.values())
    assert conf["base_dims"].count("15x10") == 15


def test_noise_fit_needs_two_cells():
    grid = hz.noise_grid(sigmas=(0.5,), trials=1, seed=19)
    cells, _ = hz.run_experiment(hz.noise_grid(sigmas=(0.5, 0.05), trials=1, seed=19))
    with pytest.raises(ConfigError):
        hz.noise_fit(cells[:1])
    assert grid.trials == 1


def test_non_finite_trial_is_recorded_and_grid_continues(monkeypatch):
    # A NaN observation fails its own trial with a typed error; the other
    # trials of the grid still run and succeed.
    grid = hz.phase_lr_grid(L_values=(100,), r_values=(1,), trials=2, seed=11)
    bad_seed = hz.trial_seed(grid, grid.cells()[0], 0)
    make_ensemble = hz.make_ensemble

    def make_with_nan(*args, seed, **kwargs):
        ens = make_ensemble(*args, seed=seed, **kwargs)
        if seed == bad_seed:
            ens.y = ens.y.copy()
            ens.y[0] = np.nan
        return ens

    monkeypatch.setattr(hz, "make_ensemble", make_with_nan)
    (cell,), _fit = hz.run_experiment(grid)
    bad, good = cell.trials
    assert bad.reason == "ConfigError" and not bad.success and bad.iterations == 0
    assert math.isnan(bad.rel_error)
    assert good.reason == "" and good.success
    assert cell.success_count == 1 and cell.total == 2


# One fast one-trial grid per experiment, for the tests on the table and
# on trial tasks (the noise fit needs two cells).
_SMALL = {
    hz.PHASE_LR: lambda: hz.phase_lr_grid(L_values=(100,), r_values=(1,), trials=1, seed=3),
    hz.PHASE_KN: lambda: hz.phase_kn_grid(K_values=(5,), N_values=(5,), trials=1, seed=3),
    hz.MU_H: lambda: hz.mu_h_grid(L_values=(200,), m_values=(3,), trials=1, seed=3),
    hz.NOISE: lambda: hz.noise_grid(sigmas=(1.0, 0.5), trials=1, seed=3),
}


def test_experiment_table_covers_every_experiment():
    # every experiment has a table row whose axes are CLI flags, and a
    # key typo in an extras function would be written as a silent nan
    assert set(hz.EXPERIMENT_TABLE) == set(hz.EXPERIMENTS) == set(_SMALL)
    for name, make_grid in _SMALL.items():
        spec = hz.EXPERIMENT_TABLE[name]
        assert set(spec.axes) <= set(spec.flags) <= set(cli._EXPERIMENT)
        grid = make_grid()
        assert grid.axis_names == spec.axes
        cells, fit = hz.run_experiment(grid)
        cell = cells[0]
        (trial,) = cell.trials
        assert trial.reason == ""
        assert tuple(trial.extra) == spec.trial_fields
        assert tuple(cell.extra) == spec.summary_fields
        assert (fit is not None) == (name == hz.NOISE)


@pytest.mark.parametrize("name", hz.EXPERIMENTS)
def test_trial_task_pickles(name):
    # a task is plain data, so a process pool could ship it unchanged
    grid = _SMALL[name]()
    coords = grid.cells()[0]
    task = (grid, coords, 0, hz.trial_seed(grid, coords, 0))
    again = pickle.loads(pickle.dumps(task))
    assert again == task
    want, got = hz._one_trial(*task), hz._one_trial(*again)
    want.wall_ms = got.wall_ms = 0.0
    assert got == want


@pytest.mark.parametrize("name", hz.EXPERIMENTS)
def test_trial_calls_module_names_at_call_time(monkeypatch, name):
    # the bench's spans wrap these names on the harness module; each trial
    # draws once and solves once
    calls = {}
    for attr in ("make_ensemble", "solve", "gram_spectrum", "mu_h"):
        real = getattr(hz, attr)

        def counted(*args, _attr=attr, _real=real, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(hz, attr, counted)
    grid = _SMALL[name]()
    hz.run_experiment(grid)
    n = len(grid.cells()) * grid.trials
    want = {"make_ensemble": n, "solve": n}
    if name == hz.NOISE:
        want["gram_spectrum"] = n
    if name == hz.MU_H:
        want["mu_h"] = n
    assert calls == want


def test_phase_kn_without_r_runs_two_users():
    grid = hz.phase_kn_grid(K_values=(5,), N_values=(5,), r=None, trials=1)
    assert grid.r is None
    ens, cfg = hz.EXPERIMENT_TABLE[hz.PHASE_KN].instance(grid, {"K": 5, "N": 5}, 1)
    assert ens.r == 2 and cfg == grid.solver


def test_noise_trial_merit_is_non_increasing():
    # the penalty is fixed for the whole solve, so the ball solve of a noise
    # trial is a fixed-point iteration whose merit never rises; residual
    # balancing, which halved rho from 40 to 20 on this draw, raised it by
    # 7.9e-5 relative
    grid = hz.noise_grid("gaussian-r3", sigmas=(0.005,), trials=1, seed=13)
    coords = grid.cells()[0]
    ens, cfg = hz.EXPERIMENT_TABLE[hz.NOISE].instance(
        grid, dict(coords), hz.trial_seed(grid, coords, 0)
    )
    rep = demix.solve(ens, cfg)
    assert rep.converged
    m = rep.merit_history
    assert np.all(np.diff(m) <= 1e-9 * (1.0 + m[0]))
