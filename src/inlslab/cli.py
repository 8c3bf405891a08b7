"""Command-line front end: JSON config in, deterministic CSV out.

Exit codes: 0 success, 2 configuration/validation error, a negative --seed
included (single-line diagnostic on stderr naming the violated
precondition), 3 file I/O failure, 4 numerical failure (grid.NumericalFailure:
of an evolution, of a ground-state solver, or a ground-state threshold that is
not positive); single-line diagnostic on stderr.
All numeric output is fixed-precision decimal text with a fixed row order,
and every randomized probe takes an explicit seed, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import shutil
import sys
from fractions import Fraction

import numpy as np

from . import evolve as evolve_mod
from . import exponents, functionals, groundstate
from .grid import NumericalFailure, RadialField, RadialGrid, gaussian_field
from .params import ModelParams, exact, upper_exponents, validate_scope


class ConfigError(ValueError):
    pass


# the allowed keys per config section, each with the kind _read takes it
# as; unknown keys are rejected
_SCHEMA = {
    "model": {"N": int, "alpha": float, "b": float},
    "grid": {"J": int, "h": float},
    "solver": {"method": str, "tol": float, "max_iter": int},
    "evolve": {"dt": float, "t_end": float, "record_every": int, "virial_R": float, "linear_only": bool},
    "pairs": {"theta": Fraction, "eps": Fraction},
    "classify": {"field": str},
    "sweep": {"subcommand": str, "N": list, "alpha": list, "b": list},
    "output": {"directory": str, "precision": int},
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, val in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(val, dict):
            raise ConfigError(f"section {key!r} must be an object")
        for sub in val:
            if sub not in _SCHEMA[key]:
                raise ConfigError(f"unknown key {key}.{sub}")
    return cfg


_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          Fraction: "a finite number or a fraction string", list: "a list"}
_REQUIRED = object()


def _typed(name, value, kind):
    """value as `kind` (a key of _KINDS), or a ConfigError naming `name`.
    Numbers are JSON numbers only, never bools or strings, and an int must be
    integral and finite; a Fraction is params.exact of a number or a string
    such as "1/100"; a list holds numbers, kept as written.  Range checks are
    left to the caller."""
    if kind in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float:
            try:
                return float(value)
            except OverflowError:  # an integer past the float range, as 1e400 reads as inf
                return math.copysign(math.inf, value)
        if isinstance(value, int) or math.isfinite(value) and value.is_integer():
            return int(value)
    elif kind is Fraction:
        try:
            return exact(value)
        except ValueError:
            pass
    elif kind is list and isinstance(value, list):
        for entry in value:
            _typed(f"{name} entry", entry, float)
        return value
    elif kind in (bool, str) and isinstance(value, kind):
        return value
    raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def _read(cfg, name, default=_REQUIRED, valid=None):
    """The config value `name` ("section.key") as the kind _SCHEMA gives it;
    `default` where the key is absent, or null where the default is None;
    valid = (description, predicate) bounds the value."""
    section, key = name.split(".")
    value = cfg.get(section, {}).get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"{name} is required")
    if value is None and default is None:
        return None
    value = _typed(name, value, _SCHEMA[section][key])
    if valid is not None and not valid[1](value):
        raise ConfigError(f"{name} must be {valid[0]}, got {value!r}")
    return value


def _checked(section, make, *args, **kwargs):
    """make(*args, **kwargs), with a library ValueError raised as a
    ConfigError naming the config section it came from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _model(cfg) -> ModelParams:
    N, alpha, b = _read(cfg, "model.N"), _read(cfg, "model.alpha"), _read(cfg, "model.b")
    return _checked("model", ModelParams, N, alpha, b)


_CLASSIFIER_J = (f"at least {functionals.CLASSIFIER_MIN_J} for the classifier's mesh-halving error band",
                 lambda J: J >= functionals.CLASSIFIER_MIN_J)


def _grid(cfg, params, valid_J=None) -> RadialGrid:
    J, h = _read(cfg, "grid.J", valid=valid_J), _read(cfg, "grid.h")
    return _checked("grid", RadialGrid, J=J, h=h, N=params.N)


def _precision(cfg) -> int:
    return _read(cfg, "output.precision", 12, valid=("in [1, 17]", lambda p: 1 <= p <= 17))


def _fmt(x, prec):
    if isinstance(x, float):  # numpy's float64 too; first, since a profile.csv holds 2 J of them
        return f"%.{prec}g" % x
    if isinstance(x, str):  # next, for the J r strings _write_field formats at 17 digits
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"%.{prec}g" % x


def _write_csv(path, header, rows, prec):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v, prec) for v in row])


def _remove_stale(path):
    """Delete an earlier run's output file that this run does not write."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _write_report(path, label, report, prec):
    """A report dataclass as one CSV row: label, then the report's fields in order."""
    names = [f.name for f in dataclasses.fields(report)]
    _write_csv(path, ["label", *names], [[label, *dataclasses.astuple(report)]], prec)


# a field CSV holds one row r,re,im per grid node
_FIELD_HEADER = ["r", "re", "im"]


def _write_field(path, u: RadialField, prec):
    """u as a field CSV; r is written at 17 digits whatever prec, so that
    _read_field finds the grid's nodes again."""
    rs = (_fmt(r, 17) for r in u.grid.nodes)
    _write_csv(path, _FIELD_HEADER, zip(rs, u.values.real, u.values.imag), prec)


def _read_field(path, grid: RadialGrid) -> RadialField:
    """The field of a field CSV whose nodes are those of `grid`."""
    rs, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [c.strip() for c in header] != _FIELD_HEADER:
            raise ValueError(f"unexpected field CSV header {header}")
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"field CSV row {row} does not have 3 columns")
            rs.append(float(row[0]))
            vals.append(float(row[1]) + 1j * float(row[2]))
    if len(rs) != grid.J or not np.allclose(grid.nodes, rs, rtol=1e-9, atol=1e-12):
        raise ValueError(f"field CSV nodes do not match the configured grid (J={grid.J}, h={grid.h})")
    return grid.field(np.asarray(vals))


def _out_dir(cfg, args) -> str:
    directory = _read(cfg, "output.directory", ".")
    out = args.out or directory
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_params(cfg, args) -> int:
    params = _model(cfg)
    two_star, two_lower_star = _checked("params", upper_exponents, params.N, params.b)
    scope = validate_scope(params)
    prec = _precision(cfg)
    parts = [
        f"s_c={_fmt(params.s_c, prec)}",
        f"two_star={_fmt(float(two_star), prec)}",
        f"two_lower_star={_fmt(float(two_lower_star), prec)}",
        f"mass_supercritical={_fmt(scope.mass_supercritical, prec)}",
        f"energy_subcritical={_fmt(scope.energy_subcritical, prec)}",
        f"scattering_subcritical={_fmt(scope.scattering_subcritical, prec)}",
        f"theorem_scope={_fmt(scope.theorem_scope, prec)}",
        f"global_scope={_fmt(scope.global_scope, prec)}",
    ]
    print(" ".join(parts))
    return 0


def cmd_pairs(cfg, args) -> int:
    params = _model(cfg)
    prec = _precision(cfg)
    theta, eps = _read(cfg, "pairs.theta", None), _read(cfg, "pairs.eps", exponents.CLAIM2_EPS)
    rows = _checked("pairs", exponents.certificate_rows, params.N, params.alpha, params.b, theta=theta, eps=eps)
    app = _checked("pairs", exponents.appendix_checks, params.N, params.alpha, params.b, rows[0]["theta"], eps=eps)
    out = _out_dir(cfg, args)
    header = ["family", "pair", "N", "alpha", "b", "theta", "q", "r", "class", "admissible", "identity_residual"]
    _write_csv(
        os.path.join(out, "pairs.csv"),
        header,
        [[r[k] for k in header] for r in rows],
        prec,
    )
    ah = ["check", "bound_holds", "condition_holds", "equivalent"]
    _write_csv(
        os.path.join(out, "appendix.csv"),
        ah,
        [[r[k] for k in ah] for r in app],
        prec,
    )
    return 0


def _solve(cfg, params, grid, method):
    """The ground state by `method` (shooting or fixedpoint), once the model
    is in the global-existence scope the solvers are meant for."""
    if not validate_scope(params).global_scope:
        raise ConfigError(
            f"(N={params.N}, alpha={params.alpha}, b={params.b}) is outside "
            "the global-existence scope"
        )
    # solve_fixedpoint's own defaults stand for the keys the config leaves out
    bounds = {"tol": ("positive and finite", lambda t: 0 < t < math.inf), "max_iter": ("at least 1", lambda n: n >= 1)}
    options = {key: _read(cfg, f"solver.{key}", valid=bounds[key]) for key in bounds if key in cfg.get("solver", {})}
    if method == "shooting":
        return groundstate.solve_shooting(params, grid)
    return groundstate.solve_fixedpoint(params, grid, **options)


def cmd_groundstate(cfg, args) -> int:
    params = _model(cfg)
    grid = _grid(cfg, params)
    prec = _precision(cfg)
    out = _out_dir(cfg, args)
    method = _read(cfg, "solver.method", "both",
                   valid=("shooting, fixedpoint or both", lambda m: m in ("shooting", "fixedpoint", "both")))
    methods = ["shooting", "fixedpoint"] if method == "both" else [method]
    results = {m: _solve(cfg, params, grid, m) for m in methods}
    primary = results.get("fixedpoint") or next(iter(results.values()))
    _write_field(os.path.join(out, "profile.csv"), primary.profile, prec)
    id_rows = []
    for name, gs in sorted(results.items()):
        residuals = groundstate.verify_identities(gs)
        for key, (lhs, rhs) in groundstate.identity_sides(gs).items():
            id_rows.append([f"{key}:{name}", lhs, rhs, residuals[key]])
    _write_csv(os.path.join(out, "identities.csv"), ["identity", "lhs", "rhs", "rel_residual"], id_rows, prec)
    _write_csv(
        os.path.join(out, "solver.csv"),
        ["method", "iterations", "residual"],
        [[name, gs.iterations, gs.residual] for name, gs in sorted(results.items())],
        prec,
    )
    sc = groundstate.sharp_constant(primary)
    probe = groundstate.gn_maximality_probe(primary, seed=args.seed)
    _write_csv(
        os.path.join(out, "sharp.csv"),
        ["cgn_formula", "cgn_direct", "rel_gap", "probe_max_quotient", "probe_holds", "probe_trials", "seed"],
        [[sc["cgn_formula"], sc["cgn_direct"], sc["rel_gap"], probe["max_quotient"], probe["holds"], probe["trials"], args.seed]],
        prec,
    )
    return 0


def _load_field(cfg, args, grid):
    if args.field:
        try:
            return _read_field(args.field, grid)
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"--field {args.field}: {exc}") from exc
    spec = _read(cfg, "classify.field", None)
    if spec is None:
        raise ConfigError("no --field file and no classify.field profile given")
    spec = spec.strip()
    if spec.startswith("gaussian(") and spec.endswith(")"):
        try:
            amp, width = (float(x) for x in spec[len("gaussian(") : -1].split(","))
            return gaussian_field(grid, amp, width)
        except ValueError as exc:
            raise ConfigError(f"cannot use field spec {spec!r}: {exc}") from exc
    if spec == "zero":
        return grid.field(np.zeros(grid.J))
    raise ConfigError(f"unknown analytic field spec {spec!r}")


_CLASSIFY_HEADER = [
    "mass", "energy", "em_product", "gm_product", "em_threshold",
    "gm_threshold", "w", "A", "verdict",
]


def cmd_classify(cfg, args) -> int:
    params = _model(cfg)
    grid = _grid(cfg, params, _CLASSIFIER_J)
    prec = _precision(cfg)
    u0 = _load_field(cfg, args, grid)
    rep = functionals.classify(u0, _solve(cfg, params, grid, "fixedpoint"))
    row = [getattr(rep, k) for k in _CLASSIFY_HEADER]
    writer = csv.writer(sys.stdout)
    writer.writerow(_CLASSIFY_HEADER)
    writer.writerow([_fmt(v, prec) for v in row])
    return 0


def cmd_evolve(cfg, args) -> int:
    params = _model(cfg)
    grid = _grid(cfg, params, _CLASSIFIER_J)
    prec = _precision(cfg)
    out = _out_dir(cfg, args)
    defaults = evolve_mod.EvolutionConfig
    values = dict(
        dt=_read(cfg, "evolve.dt"),
        t_end=_read(cfg, "evolve.t_end"),
        record_every=_read(cfg, "evolve.record_every", defaults.record_every),
        virial_R=_read(cfg, "evolve.virial_R", defaults.virial_R),
        linear_only=_read(cfg, "evolve.linear_only", defaults.linear_only),
    )
    econf = _checked("evolve", evolve_mod.EvolutionConfig, params=params, J=grid.J, h=grid.h, **values)
    u0 = _load_field(cfg, args, grid)
    rep = functionals.classify(u0, _solve(cfg, params, grid, "fixedpoint"))
    exploratory = rep.verdict not in evolve_mod.BELOW_THRESHOLD
    trace = evolve_mod.run(u0, econf, threshold=rep)
    columns = evolve_mod.TRACE_COLUMNS
    _write_csv(os.path.join(out, "trace.csv"), list(columns),
               zip(*(getattr(trace, name) for name in columns.values())), prec)
    label = "exploratory" if exploratory else "below_threshold"
    rigidity = os.path.join(out, "rigidity.csv")
    if econf.virial_R is not None and not exploratory:
        _write_report(rigidity, label, evolve_mod.rigidity_check(trace, rep), prec)
    else:
        _remove_stale(rigidity)
    _write_report(os.path.join(out, "scattering.csv"), label, evolve_mod.scattering_diagnostic(trace), prec)
    return 0


def cmd_sweep(cfg, args) -> int:
    sub = _read(cfg, "sweep.subcommand",
                valid=("params, pairs, groundstate, classify or evolve", lambda s: s in _DISPATCH and s != "sweep"))
    lists = {}
    for key in ("N", "alpha", "b"):
        # a list, or where the key is absent the one model.key value; each
        # point checks its own values, and the manifest echoes them as written
        if key in cfg.get("sweep", {}):
            lists[key] = _read(cfg, f"sweep.{key}")  # an explicit null is not a list
        elif cfg.get("model", {}).get(key) is None:
            raise ConfigError(f"sweep needs {key} (list) or model.{key}")
        else:
            lists[key] = _typed(f"sweep.{key}", [cfg["model"][key]], list)
    points = itertools.product(lists["N"], lists["alpha"], lists["b"])
    out = _out_dir(cfg, args)
    # the sweep owns every point_NNNN directory in out: all of them go and
    # each listed point is made anew, so no file of an earlier run is left
    point_dir = re.compile(r"point_\d{4,}")
    if args.field is not None:
        top = os.path.relpath(os.path.realpath(args.field), os.path.realpath(out)).split(os.sep)[0]
        if point_dir.fullmatch(top):
            raise ConfigError(f"--field {args.field} lies in a sweep point directory, which the sweep empties")
    for entry in os.scandir(out):
        if entry.is_dir() and point_dir.fullmatch(entry.name):
            shutil.rmtree(entry.path)
    manifest = []
    for idx, (n_val, a_val, b_val) in enumerate(points):
        name = f"point_{idx:04d}"
        sub_dir = os.path.join(out, name)
        os.mkdir(sub_dir)
        point_cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items() if k != "sweep"}
        point_cfg.setdefault("model", {})
        point_cfg["model"].update({"N": n_val, "alpha": a_val, "b": b_val})
        # "." keeps the emitted config byte-stable across parent directories;
        # re-running it from inside the point directory reproduces the run
        point_cfg.setdefault("output", {})
        point_cfg["output"]["directory"] = "."
        with open(os.path.join(sub_dir, "config.json"), "w") as fh:
            json.dump(point_cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        point_args = argparse.Namespace(out=sub_dir, field=args.field, seed=args.seed)
        status, reason = _run(lambda: _DISPATCH[sub](point_cfg, point_args))
        if status:
            with open(os.path.join(sub_dir, "error.txt"), "w") as fh:
                fh.write(f"{reason}\n")
        manifest.append([idx, sub, n_val, a_val, b_val, name, status])
    _write_csv(
        os.path.join(out, "manifest.csv"),
        ["index", "subcommand", "N", "alpha", "b", "directory", "status"],
        manifest,
        _precision(cfg),
    )
    return 0


def _run(command):
    """(exit status, reason) of command(): its own status on success, else
    2 for a ConfigError, 3 for an OSError and 4 for a numerical failure, with
    the one-line text that reports it."""
    try:
        return command(), ""
    except ConfigError as exc:
        return 2, str(exc)
    except OSError as exc:
        return 3, f"io error: {exc}"
    except NumericalFailure as exc:
        return 4, f"numerical failure: {exc}"


_DISPATCH = {
    "params": cmd_params,
    "pairs": cmd_pairs,
    "groundstate": cmd_groundstate,
    "classify": cmd_classify,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
}


def _dispatch(args) -> int:
    """The subcommand's status; numpy's generators take no negative seed."""
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    return _DISPATCH[args.subcommand](load_config(args.config), args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="inlslab",
        description="Numerical laboratory for the radial inhomogeneous NLS equation",
    )
    parser.add_argument("subcommand", choices=sorted(_DISPATCH))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--field", default=None, help="field CSV (r,re,im) input")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized probes")
    args = parser.parse_args(argv)
    status, reason = _run(lambda: _dispatch(args))
    if status:
        # an I/O failure's reason already reads "io error: ..."
        print(reason if status == 3 else f"error: {reason}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
