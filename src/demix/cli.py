"""Command-line front end: instance generation, solves, diagnostics,
certificate runs, and experiment grids.

Subcommands

  gen         draw one random instance and save it as JSON
  solve       solve one instance (generated or loaded) and write a report
  diagnose    incoherence and isometry diagnostics for one instance
  certify     golfing dual-certificate construction and checks
  experiment  Monte-Carlo grids: phase-lr, phase-kn, mu-h, noise

Configuration is flat key=value text (one pair per line, # comments); the
same keys exist as command-line flags and flags win.  Unknown keys are
rejected by name.  Every run writes its fully-resolved configuration —
defaults included — to <prefix>config.txt next to its outputs, in the
same key=value format, so any output can be regenerated from the log
alone.  The default output directory is $DEMIX_OUTDIR, falling back to
the current directory.

Exit codes are a stable contract: 0 success, 1 usage or configuration
error, 2 recovery or convergence failure.
"""

import argparse
import math
import os
import sys

import numpy as np

from .certificate import CertificateReport, check_dual_certificate, golfing_run
from .ensemble import (
    A_KINDS,
    B_KINDS,
    GAUSSIAN,
    PARTIAL_DFT,
    check_eta,
    load_ensemble,
    make_ensemble,
    save_ensemble,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    SingularGramError,
)
from .incoherence import IncoherenceReport, dft_partition, incoherence_report
from .solver import BALL, EQUALITY, MODES, SolverConfig, SolverReport, solve
from . import harness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RECOVERY = 2

OUTDIR_ENV = "DEMIX_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; our contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(EXIT_USAGE)


def _bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % (text,))


def _int_list(text):
    return tuple(int(part) for part in str(text).split(",") if part.strip())


def _float_list(text):
    return tuple(float(part) for part in str(text).split(",") if part.strip())


# Option tables: name -> (converter, default, help).  The same names are
# accepted as --flags and as config-file keys; dashes and underscores in
# keys are interchangeable.

_COMMON = {
    "config": (str, None, "flat key=value config file; flags override it"),
    "outdir": (str, None, "output directory (default: $%s or '.')" % OUTDIR_ENV),
    "prefix": (str, None, "output filename prefix (default: per subcommand)"),
    "seed": (int, 0, "master seed"),
    "verbose": (int, 0, "verbosity (0 quiet, 1 chatty)"),
    "threads": (int, 1, "worker processes for experiment grids (1: run in this process)"),
}

_GEN = {
    "L": (int, 128, "number of measurements"),
    "r": (int, 1, "number of sources"),
    "K": (int, 8, "impulse-response length per source"),
    "N": (int, 8, "signal length per source"),
    "A": (str, GAUSSIAN, "A kind: %s" % "|".join(A_KINDS)),
    "B": (str, PARTIAL_DFT, "B kind: %s" % "|".join(B_KINDS)),
    "noise": (float, 0.0, "norm of the additive noise drawn at generation"),
    "ensemble": (str, None, "load this saved instance instead of generating"),
}

_SOLVE = {
    "mode": (str, None, "%s (default: ball exactly when eta > 0)" % "|".join(MODES)),
    "eta": (float, None, "ball radius (default: the instance noise norm)"),
    "max_iters": (int, 20000, "iteration cap"),
    "tol": (float, 1e-7, "primal and dual stopping tolerance"),
    "variables": (str, "auto", "auto|real|complex search space"),
    "dump_estimates": (_bool, False, "also write the factor estimates as .npz"),
}

_DIAGNOSE = {
    "P": (int, None, "partition blocks (default: derived from L and max K)"),
}

_CERTIFY = {
    "P": (int, 4, "partition blocks for the golfing run"),
    "steps": (int, None, "golfing steps (default: all P blocks)"),
}

_EXPERIMENT = {
    "trials": (int, 10, "trials per cell"),
    "full": (_bool, False, "full-size grid instead of the desk-scale default"),
    "profile": (str, None, "noise profile: %s (default: %s)"
                % ("|".join(harness.NOISE_PROFILES), harness.DEFAULT_NOISE_PROFILE)),
    "a": (str, None, "A kind for phase grids: %s" % "|".join(A_KINDS)),
    "L": (_int_list, None, "L values (phase-lr, mu-h) or the fixed L (phase-kn)"),
    "r": (_int_list, None, "r values (phase-lr) or the fixed r (phase-kn)"),
    "K": (_int_list, None, "K values (phase-kn)"),
    "N": (_int_list, None, "N values (phase-kn)"),
    "m": (_int_list, None, "ones-count values (mu-h)"),
    "sigma": (_float_list, None, "noise levels (noise)"),
}

def _add_options(parser, options):
    for name, (conv, _default, help_text) in options.items():
        flag = "--" + name.replace("_", "-")
        if conv is _bool:
            parser.add_argument(
                flag, dest=name, nargs="?", const=True, default=None,
                type=_bool, metavar="BOOL", help=help_text,
            )
        else:
            parser.add_argument(flag, dest=name, default=None, type=conv, help=help_text)


def _read_config_file(path):
    pairs = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(
                        "%s:%d: expected key = value, got %r" % (path, lineno, text)
                    )
                key, _, value = text.partition("=")
                pairs.append((lineno, key.strip(), value.strip()))
    except OSError as exc:
        raise ConfigError("cannot read config file %s (%s)" % (path, exc))
    return pairs


def _resolve(options, args):
    """Defaults, then config file, then explicit flags; returns a dict."""
    values = {name: default for name, (_c, default, _h) in options.items()}
    path = getattr(args, "config", None)
    if path:
        seen = {}
        for lineno, key, raw in _read_config_file(path):
            name = key.replace("-", "_")
            if name == "config" or name not in options:
                raise ConfigError("unknown config key %r in %s" % (key, path))
            if name in seen:
                raise ConfigError("%s:%d: config key %r given twice (first on line %d)"
                                  % (path, lineno, key, seen[name]))
            seen[name] = lineno
            conv = options[name][0]
            try:
                values[name] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    "bad value for config key %r in %s: %s" % (key, path, exc)
                )
    for name in options:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    return values


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _prepare_outdir(values):
    outdir = values.get("outdir") or os.environ.get(OUTDIR_ENV) or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output directory %s (%s)" % (outdir, exc))
    if not os.access(outdir, os.W_OK):
        raise ConfigError("output directory %s is not writable" % outdir)
    values["outdir"] = outdir
    return outdir


def _log_config(values, outdir, prefix, derived=None):
    """Write the fully-resolved configuration (defaults included).

    The file is itself a valid --config input: option keys appear as
    plain key = value lines (unset optional keys are omitted), while
    derived settings that have no flag of their own (grid axes, solver
    knobs) are recorded as comment lines.
    """
    own = {k: v for k, v in values.items() if k != "config" and v is not None}
    lines = ["%s = %s" % (k, _format_value(own[k])) for k in sorted(own)]
    if derived:
        lines += ["# %s = %s" % (k, _format_value(derived[k])) for k in sorted(derived)]
    path = os.path.join(outdir, prefix + "config.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print("# " + line)
    return path


def _build_ensemble(values):
    if values.get("ensemble"):
        ens = load_ensemble(values["ensemble"])
        return ens
    if values["L"] < 1:
        raise DimensionError("L must be positive, got %d" % values["L"])
    if values["r"] < 1:
        raise DimensionError("r must be positive, got %d" % values["r"])
    dims = ((values["K"], values["N"]),) * values["r"]
    return make_ensemble(
        values["L"],
        dims,
        b_kind=values["B"],
        a_kind=values["A"],
        eta=values["noise"],
        seed=values["seed"],
    )


# ----------------------------------------------------------------------
# Subcommands


def cmd_gen(args):
    values = _resolve({**_COMMON, **_GEN, "out": (str, "ensemble.json", "output file name")}, args)
    outdir = _prepare_outdir(values)
    prefix = values["prefix"] = (
        values["prefix"] if values["prefix"] is not None else "gen_"
    )
    ens = _build_ensemble(values)
    _log_config(values, outdir, prefix)
    out = values["out"]
    path = out if os.path.isabs(out) else os.path.join(outdir, prefix + out)
    save_ensemble(ens, path)
    print("wrote %s (L=%d r=%d ||y||=%.6g)" % (path, ens.L, ens.r, np.linalg.norm(ens.y)))
    return EXIT_OK


def cmd_solve(args):
    values = _resolve({**_COMMON, **_GEN, **_SOLVE}, args)
    outdir = _prepare_outdir(values)
    prefix = values["prefix"] = (
        values["prefix"] if values["prefix"] is not None else "solve_"
    )
    ens = _build_ensemble(values)
    eta = values["eta"] = (
        values["eta"] if values["eta"] is not None else ens.eta
    )
    check_eta(eta)  # a NaN would otherwise pick equality mode below
    mode = values["mode"] = values["mode"] or (BALL if eta > 0 else EQUALITY)
    _log_config(values, outdir, prefix)
    cfg = SolverConfig(
        mode=mode,
        eta=eta if mode == BALL else 0.0,
        max_iters=values["max_iters"],
        tol=values["tol"],
        variables=values["variables"],
    )
    report = solve(ens, cfg)
    path = os.path.join(outdir, prefix + "report.csv")
    harness.write_csv(path, SolverReport.CSV_FIELDS, [report.csv_row()])
    if values["dump_estimates"]:
        arrays = {}
        for i, (h, x, _c) in enumerate(report.factors):
            arrays["h%d" % i] = h
            arrays["x%d" % i] = x
        np.savez(os.path.join(outdir, prefix + "estimates.npz"), **arrays)
    rel = "n/a" if report.rel_error is None else "%.3e" % report.rel_error
    print(
        "solve: mode=%s variables=%s converged=%s iters=%d rel_error=%s"
        % (report.mode, report.variables, report.converged, report.iterations, rel)
    )
    print("wrote %s" % path)
    recovered = report.success if report.success is not None else report.converged
    return EXIT_OK if recovered and report.converged else EXIT_RECOVERY


def cmd_diagnose(args):
    values = _resolve({**_COMMON, **_GEN, **_DIAGNOSE}, args)
    outdir = _prepare_outdir(values)
    prefix = values["prefix"] = (
        values["prefix"] if values["prefix"] is not None else "diagnose_"
    )
    ens = _build_ensemble(values)
    partition = dft_partition(ens.L, values["P"]) if values["P"] is not None else None
    _log_config(values, outdir, prefix)
    report = incoherence_report(ens, partition)
    path = os.path.join(outdir, prefix + "incoherence.csv")
    harness.write_csv(path, IncoherenceReport.CSV_FIELDS, [report.csv_row()])
    print(
        "diagnose: L=%d r=%d mu_max_sq=%.6g mu_h_sq=%.6g iso=%.3e [%s]"
        % (report.L, report.r, report.mu_max_sq, report.mu_h_sq,
           report.iso_deviation, report.partition_status)
    )
    print("wrote %s" % path)
    return EXIT_OK


def cmd_certify(args):
    values = _resolve({**_COMMON, **_GEN, **_CERTIFY}, args)
    outdir = _prepare_outdir(values)
    prefix = values["prefix"] = (
        values["prefix"] if values["prefix"] is not None else "certify_"
    )
    values["steps"] = values["steps"] if values["steps"] is not None else values["P"]
    ens = _build_ensemble(values)
    partition = dft_partition(ens.L, values["P"])
    _log_config(values, outdir, prefix)
    report = golfing_run(ens, partition, P=values["steps"])
    check_dual_certificate(ens, report)
    path = os.path.join(outdir, prefix + "certificate.csv")
    harness.write_csv(path, CertificateReport.CSV_FIELDS, report.csv_rows(trial=0))
    final_w = max(report.w_norms[-1]) if len(report.w_norms) else float("nan")
    print(
        "certify: P=%d max||W_P||=%.3e w_rate=%s cond1=%s cond2=%s gate=%.3f [%s]"
        % (report.P, final_w, report.w_rate_pass, report.cond1_pass,
           report.cond2_pass, report.gate, report.partition_status)
    )
    print("wrote %s" % path)
    return EXIT_OK


def _experiment_grid(name, values):
    """The experiment's grid from its EXPERIMENT_TABLE flags.

    A list flag that is not one of the experiment's axes (phase-kn's L
    and r) pins a fixed value and takes exactly one.
    """
    spec = harness.EXPERIMENT_TABLE[name]
    for flag in ("profile", "a", "L", "r", "K", "N", "m", "sigma"):
        if values.get(flag) is not None and flag not in spec.flags:
            raise ConfigError("flag --%s does not apply to experiment %r" % (flag, name))
    given = {}
    for flag, keyword in spec.flags.items():
        value = values[flag]
        if isinstance(value, tuple) and flag not in spec.axes:
            if len(value) != 1:
                raise ConfigError("%s takes a single fixed %s" % (name, flag))
            value = value[0]
        if value is not None:
            given[keyword] = value
    return spec.make_grid(
        trials=values["trials"],
        seed=values["seed"],
        threads=values["threads"],
        profile=harness.FULL if values["full"] else harness.DESK,
        **given,
    )


def cmd_experiment(args):
    name = args.experiment
    if name not in harness.EXPERIMENTS:
        raise ConfigError(
            "unknown experiment %r; valid names: %s"
            % (name, ", ".join(harness.EXPERIMENTS))
        )
    values = _resolve({**_COMMON, **_EXPERIMENT}, args)
    outdir = _prepare_outdir(values)
    prefix = values["prefix"] = (
        values["prefix"] if values["prefix"] is not None else name + "_"
    )
    grid = _experiment_grid(name, values)
    _log_config(values, outdir, prefix, derived=harness.grid_config(grid))
    cells, fit = harness.run_experiment(grid)
    tpath = os.path.join(outdir, prefix + "trials.csv")
    spath = os.path.join(outdir, prefix + "summary.csv")
    harness.write_trials_csv(tpath, grid, cells)
    harness.write_summary_csv(spath, grid, cells)
    wrote = [tpath, spath]
    if len(grid.axes) == 2:
        hpath = os.path.join(outdir, prefix + "heatmap.svg")
        harness.write_heatmap_svg(hpath, grid, cells)
        wrote.append(hpath)
    if values["verbose"]:
        for cell in cells:
            coords = " ".join("%s=%s" % (k, v) for k, v in cell.coords)
            print(
                "cell %s: %d/%d success, mean rel %.3e, mean iters %.0f"
                % (coords, cell.success_count, cell.total,
                   cell.mean_rel_error, cell.mean_iterations)
            )
    total = sum(c.total for c in cells)
    successes = sum(c.success_count for c in cells)
    print(
        "experiment %s: %d cells, %d/%d trials succeeded"
        % (name, len(cells), successes, total)
    )
    if fit is not None:
        fpath = os.path.join(outdir, prefix + "fit.csv")
        harness.write_noise_fit_csv(fpath, fit)
        wrote.append(fpath)
        print(
            "noise fit: slope=%.4f intercept=%.3f R^2=%.5f c_max=%.4g"
            % (fit.slope, fit.intercept, fit.r_squared, fit.c_max)
        )
    for path in wrote:
        print("wrote %s" % path)
    return EXIT_OK


# ----------------------------------------------------------------------
# Entry point


def build_parser():
    parser = _Parser(
        prog="demix",
        description="Joint blind deconvolution / blind demixing toolkit.",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="subcommand")
    specs = {
        "gen": ({**_COMMON, **_GEN, "out": (str, "ensemble.json", "output file name")},
                "draw one random instance and save it"),
        "solve": ({**_COMMON, **_GEN, **_SOLVE}, "solve one instance"),
        "diagnose": ({**_COMMON, **_GEN, **_DIAGNOSE}, "incoherence diagnostics"),
        "certify": ({**_COMMON, **_GEN, **_CERTIFY}, "golfing certificate run"),
        "experiment": ({**_COMMON, **_EXPERIMENT}, "Monte-Carlo grids"),
    }
    for name, (options, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        if name == "experiment":
            p.add_argument(
                "experiment", metavar="NAME",
                help="one of: %s" % ", ".join(harness.EXPERIMENTS),
            )
        _add_options(p, options)
    return parser


_DISPATCH = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "diagnose": cmd_diagnose,
    "certify": cmd_certify,
    "experiment": cmd_experiment,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return _DISPATCH[args.cmd](args)
    except (ConfigError, DimensionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (SingularGramError, ConvergenceError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RECOVERY
    except (OSError, ValueError, KeyError) as exc:
        # Bad paths, unreadable files, malformed ensemble JSON.
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
