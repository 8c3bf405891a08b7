import contextlib
import csv
import filecmp
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from inlslab import cli
from inlslab.cli import main


def _write_config(path, **overrides):
    cfg = {
        "model": {"N": 3, "alpha": 2, "b": 0.3},
        "grid": {"J": 1024, "h": 1 / 64},
        "classify": {"field": "gaussian(0.5,1.0)"},
        "output": {"precision": 12},
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_params_line(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    assert main(["params", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "s_c=0.65" in out
    assert "two_star=3.4" in out
    assert "theorem_scope=true" in out


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"N": 3, "alpha": 2, "b": 0.3, "x": 1}}))
    assert main(["params", "--config", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_invalid_value_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"N": 3, "alpha": -2, "b": 0.3}}))
    assert main(["params", "--config", str(path)]) == 2


_EVOLVE = {"dt": 0.002, "t_end": 0.02, "record_every": 5}


@pytest.mark.parametrize(
    "subcommand, overrides",
    [
        ("params", {"model": {"N": 3.7, "alpha": 2, "b": 0.3}}),
        ("params", {"model": {"N": "3", "alpha": 2, "b": 0.3}}),
        ("evolve", {"evolve": dict(_EVOLVE, dt=float("nan"))}),
        ("evolve", {"evolve": dict(_EVOLVE, t_end=float("inf"))}),
        ("evolve", {"evolve": dict(_EVOLVE, dt=1e-3, t_end=1e-4)}),
        ("pairs", {"pairs": {"eps": "abc"}}),
        ("pairs", {"pairs": {"theta": float("nan")}}),
        ("classify", {"classify": {"field": 7}}),
        ("pairs", {"pairs": {"theta": [1, 20]}}),
        # the manifest echoes each point's values, so they must be numbers
        ("sweep", {"sweep": {"subcommand": "params", "alpha": [None]}}),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, subcommand, overrides):
    cfg = _write_config(tmp_path / "c.json", **overrides)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_missing_config_exits_3(tmp_path, capsys):
    assert main(["params", "--config", str(tmp_path / "nope.json")]) == 3


def test_pairs_outputs(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["pairs", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "pairs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert all(r["admissible"] == "true" for r in rows)
    assert all(r["identity_residual"] == "0" for r in rows)
    with open(out / "appendix.csv") as fh:
        arows = list(csv.DictReader(fh))
    assert all(r["equivalent"] == "true" for r in arows)


_PAIRS_DATA = os.path.join(os.path.dirname(__file__), "data", "pairs")


@pytest.mark.parametrize("n, alpha, b", [(3, 2.0, 0.3), (2, 3.0, 0.2), (4, 1.2, 0.25)])
def test_pairs_csvs_at_reference_points(tmp_path, n, alpha, b):
    # byte for byte the files written when the certificates were computed in Fractions
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"N": n, "alpha": alpha, "b": b}}))
    assert main(["pairs", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    expected = os.path.join(_PAIRS_DATA, f"N{n}_alpha{alpha}_b{b}")
    for name in ("pairs.csv", "appendix.csv"):
        assert filecmp.cmp(tmp_path / "out" / name, os.path.join(expected, name), shallow=False), name


@pytest.mark.parametrize(
    "model, pairs, line",
    [
        # at N = 1 the families once certified claim1 and failed claim2's theta search
        ({"N": 1, "alpha": 5.0, "b": 0.3}, {}, "error: pairs: the pair families need N >= 2"),
        # eps = 0 once ran 64 claim2 evaluations and reported no admissible theta
        ({"N": 2, "alpha": 3.0, "b": 0.2}, {"eps": 0}, "error: pairs: need eps > 0, got 0"),
        ({"N": 2, "alpha": 3.0, "b": 0.2}, {"eps": "-1/2"}, "error: pairs: need eps > 0, got -1/2"),
    ],
)
def test_pairs_refusals_name_their_reason(tmp_path, capsys, model, pairs, line):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": model, "pairs": pairs}))
    assert main(["pairs", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not os.listdir(tmp_path / "out")


def test_classify_zero_field(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", classify={"field": "zero"})
    assert main(["classify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    header = out[0].split(",")
    row = dict(zip(header, out[1].split(",")))
    assert row["verdict"] == "GlobalScatters"
    assert float(row["em_product"]) == 0.0


def test_groundstate_outputs_and_determinism(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        grid={"J": 2048, "h": 1 / 128},
        solver={"method": "fixedpoint"},
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["groundstate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["groundstate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("profile.csv", "identities.csv", "sharp.csv", "solver.csv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    with open(out1 / "solver.csv") as fh:
        (solver,) = list(csv.DictReader(fh))
    assert solver["method"] == "fixedpoint" and int(solver["iterations"]) > 1
    assert float(solver["residual"]) >= 0
    with open(out1 / "identities.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["identity"] for r in rows} == {
        "GS1:fixedpoint",
        "GS2:fixedpoint",
        "EGS:fixedpoint",
    }
    assert all(float(r["rel_residual"]) < 1e-3 for r in rows)


def test_identities_csv_matches_library(tmp_path):
    from inlslab.grid import RadialGrid
    from inlslab.groundstate import identity_sides, solve_fixedpoint, verify_identities
    from inlslab.params import ModelParams

    cfg = _write_config(tmp_path / "c.json", solver={"method": "fixedpoint"})
    out = tmp_path / "out"
    assert main(["groundstate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "identities.csv") as fh:
        rows = list(csv.DictReader(fh))
    gs = solve_fixedpoint(ModelParams(3, 2, 0.3), RadialGrid(J=1024, h=1 / 64, N=3))
    residuals = verify_identities(gs)
    expected = [
        {"identity": f"{key}:fixedpoint", "lhs": "%.12g" % lhs, "rhs": "%.12g" % rhs,
         "rel_residual": "%.12g" % residuals[key]}
        for key, (lhs, rhs) in identity_sides(gs).items()
    ]
    assert rows == expected


def test_evolve_trace_csv(tmp_path, monkeypatch):
    from inlslab import evolve

    run, traces = evolve.run, []

    def recording_run(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(evolve, "run", recording_run)
    cfg = _write_config(
        tmp_path / "c.json",
        grid={"J": 1024, "h": 1 / 32},
        evolve={"dt": 0.002, "t_end": 0.2, "record_every": 20, "virial_R": 8.0},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "trace.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == [
        "t", "mass", "energy", "grad2", "potential", "gm_product", "zR", "zR_prime", "zR_second",
        "ext_budget",
    ]
    assert len(rows) >= 6
    budget = traces[0].ext_budget_series
    assert len(budget) == len(rows) and all(budget > 0)
    assert [r[9] for r in rows] == ["%.12g" % x for x in budget]
    masses = [float(r[1]) for r in rows]
    assert abs(masses[-1] - masses[0]) / masses[0] < 1e-10
    with open(out / "rigidity.csv") as fh:
        assert next(csv.reader(fh)) == [
            "label", "holds", "r_too_small", "lower_bound", "min_slack", "max_budget",
            "integrated_holds", "A", "energy",
        ]
    with open(out / "scattering.csv") as fh:
        assert next(csv.reader(fh)) == [
            "label", "decayed", "final_fraction", "decay_exponent", "grad_limit", "grad_flat",
        ]


def test_evolve_removes_stale_rigidity_csv(tmp_path):
    # an exploratory run writes no rigidity.csv, so it must not leave the one
    # an earlier below-threshold run wrote into the same directory
    out = tmp_path / "out"
    for field, label in (("gaussian(0.5,1.0)", "below_threshold"), ("gaussian(3.0,1.0)", "exploratory")):
        cfg = _write_config(
            tmp_path / "c.json",
            grid={"J": 512, "h": 1 / 16},
            classify={"field": field},
            evolve={"dt": 0.002, "t_end": 0.01, "record_every": 5, "virial_R": 8.0},
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "scattering.csv") as fh:
            assert next(csv.DictReader(fh))["label"] == label
    assert not (out / "rigidity.csv").exists()


_RIGIDITY_RUN = dict(_EVOLVE, t_end=0.01, virial_R=8.0)


@pytest.mark.parametrize(
    "subcommand, passing, failing, status, names",
    [
        # alpha = 0.5 is mass-subcritical: s_c < 0 has no H^{s_c} pairs
        ("pairs", {}, {"model": {"N": 3, "alpha": 0.5, "b": 0.3}}, 2, ["pairs.csv", "appendix.csv"]),
        # at h = 9 the shooting Q is sound and the fixed-point Q has E(Q) < 0
        ("groundstate", {"grid": {"J": 64, "h": 9.0}, "solver": {"method": "shooting"}},
         {"grid": {"J": 64, "h": 9.0}, "solver": {"method": "both"}}, 4,
         ["profile.csv", "identities.csv", "solver.csv", "sharp.csv"]),
        # a below-threshold run writes all three files; a datum wider than the domain leaks at t = 0
        ("evolve", {"grid": {"J": 512, "h": 1 / 16}, "evolve": _RIGIDITY_RUN},
         {"grid": {"J": 256, "h": 1 / 16}, "classify": {"field": "gaussian(0.3,6.0)"}, "evolve": _EVOLVE}, 4,
         ["trace.csv", "rigidity.csv", "scattering.csv"]),
    ],
)
def test_failed_run_leaves_no_earlier_results(tmp_path, capsys, subcommand, passing, failing, status, names):
    # the files of an earlier run in --out were kept by a run that failed,
    # and read as that run's results
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "ok.json", **passing)
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    assert all((out / name).exists() for name in names)
    capsys.readouterr()
    cfg = _write_config(tmp_path / "bad.json", **failing)
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == status
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert [name for name in names if (out / name).exists()] == []


def test_classify_roundtrip_field_csv(tmp_path, capsys):
    # write a field in the CLI's format, feed it back through --field
    import numpy as np

    from inlslab.grid import RadialGrid, gaussian_field

    g = RadialGrid(J=1024, h=1 / 64, N=3)
    u = g.field(gaussian_field(g, 0.5, 1.0).values.astype(complex))
    fpath = tmp_path / "field.csv"
    cli._write_field(fpath, u, 12)
    cfg = _write_config(tmp_path / "c.json")
    assert main(["classify", "--config", str(cfg), "--field", str(fpath)]) == 0
    out = capsys.readouterr().out
    assert "GlobalScatters" in out


def test_field_csv_round_trip(tmp_path):
    import numpy as np

    from inlslab.grid import RadialGrid

    g = RadialGrid(J=64, h=1 / 16, N=3)
    u = g.field(np.exp(-g.nodes**2) * (1 + 0.5j))
    path = tmp_path / "f.csv"
    cli._write_field(path, u, 17)
    back = cli._read_field(path, g)
    assert back.grid == g
    np.testing.assert_allclose(back.values, u.values, rtol=1e-15)
    with pytest.raises(ValueError, match="do not match the configured grid"):
        cli._read_field(path, RadialGrid(J=64, h=1 / 8, N=3))


@pytest.mark.parametrize(
    "prec, digest",
    [
        (6, "92cc357cce599da3915fcd5dbff828d55db25fc6fae8e6c47438e7b8bed2a88f"),
        (12, "ccd47f7de227ab9283547e6231ac92577679fa013423c6424712cbe7fabf72ff"),
        (17, "a7ab43f116fbd051d3427500d9d71ee3bf3c3df55a058eaa6692473db044523e"),
    ],
)
def test_field_csv_bytes_pinned(tmp_path, prec, digest):
    # the digests were taken when each value went through _fmt and csv.writer;
    # h = 1/48 is not a binary fraction, so r has 17 significant digits
    import hashlib

    from inlslab.grid import RadialGrid, gaussian_field

    g = RadialGrid(J=1024, h=1 / 48, N=3)
    u = g.field(gaussian_field(g, 1.5, 2.0).values * (1 - 0.25j))
    path = tmp_path / "f.csv"
    cli._write_field(path, u, prec)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_field_csv_rejects_bad_header(tmp_path):
    from inlslab.grid import RadialGrid

    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1,2,3\n")
    with pytest.raises(ValueError):
        cli._read_field(path, RadialGrid(J=3, h=1.0, N=3))


def test_classify_reads_back_a_profile_written_at_low_precision(tmp_path, capsys):
    # at 6 digits r = 15.984375 would read 15.9844, off the grid's node;
    # profile.csv writes r at 17 digits whatever output.precision
    cfg = _write_config(
        tmp_path / "c.json",
        grid={"J": 512, "h": 1 / 32},
        output={"precision": 6},
    )
    out = tmp_path / "out"
    assert main(["groundstate", "--config", str(cfg), "--out", str(out)]) == 0
    profile = str(out / "profile.csv")
    assert main(["classify", "--config", str(cfg), "--field", profile]) == 0
    assert capsys.readouterr().err == ""


def test_evolve_reads_groundstate_profile_off_a_non_dyadic_grid(tmp_path, capsys):
    # h = 1/48 is not a binary fraction; --field places the profile on the
    # configured grid, not on one rebuilt from the r column
    cfg = _write_config(
        tmp_path / "c.json",
        grid={"J": 512, "h": 1 / 48},
        solver={"method": "fixedpoint"},
        evolve={"dt": 1e-3, "t_end": 0.01},
    )
    out = tmp_path / "out"
    assert main(["groundstate", "--config", str(cfg), "--out", str(out)]) == 0
    profile = str(out / "profile.csv")
    assert main(["evolve", "--config", str(cfg), "--out", str(out), "--field", profile]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "trace.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2  # t = 0 and t_end


def test_sweep_manifest(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        sweep={"subcommand": "pairs", "alpha": [1.5, 2], "b": [0.2, 0.3]},
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "manifest.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # product of list lengths
    assert all(r["status"] == "0" for r in rows)
    # each point directory holds a re-ingestible config
    sub = out / rows[0]["directory"]
    reloaded = json.loads((sub / "config.json").read_text())
    assert reloaded["model"]["alpha"] == 1.5
    assert (sub / "pairs.csv").exists()


def test_sweep_records_missing_field_as_io_error(tmp_path, capsys):
    # every failed point gets its status, an I/O failure's 3 included
    missing = str(tmp_path / "missing.csv")
    cfg = _write_config(tmp_path / "c.json", sweep={"subcommand": "classify", "alpha": [1.5, 2]})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--field", missing]) == 0
    with open(out / "manifest.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["3", "3"]
    # error.txt holds the line the command itself prints
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg), "--field", missing]) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ")
    assert [(out / r["directory"] / "error.txt").read_text() for r in rows] == [err, err]


def test_sweep_unknown_subcommand(tmp_path):
    cfg = _write_config(tmp_path / "c.json", sweep={"subcommand": "sweep"})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def _leaking_config(path, **overrides):
    # a profile far wider than the domain puts mass in the outer shell at t = 0
    return _write_config(
        path,
        grid={"J": 512, "h": 1 / 32},
        classify={"field": "gaussian(0.5,8.0)"},
        evolve={"dt": 0.002, "t_end": 0.02, "record_every": 5},
        **overrides,
    )


def _run_python(*args, timeout=300):
    """Run a fresh interpreter that imports the package under test."""
    import subprocess
    import sys

    import inlslab.cli

    src = os.path.dirname(os.path.dirname(inlslab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _run_cli_process(*args, timeout=300):
    """Run the command line in a fresh interpreter, as a user would."""
    return _run_python("-m", "inlslab.cli", *args, timeout=timeout)


def _scipy_loaded_by(statement):
    """The scipy modules a fresh interpreter holds after running statement."""
    report = "import sys\nprint('scipy:', *sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    proc = _run_python("-c", f"{statement}\n{report}")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


def test_importing_the_package_loads_no_scipy():
    modules = ("cli", "evolve", "exponents", "functionals", "grid", "groundstate", "params")
    assert _scipy_loaded_by("import " + ", ".join(f"inlslab.{m}" for m in modules)) == []


@pytest.mark.parametrize("subcommand", ["params", "pairs"])
def test_exact_rational_subcommands_load_no_scipy(tmp_path, subcommand):
    # the exponent certificates and the scope check run in Fractions alone
    args = [subcommand, "--config", str(_write_config(tmp_path / "c.json"))]
    if subcommand == "pairs":
        args += ["--out", str(tmp_path / "out")]
    assert _scipy_loaded_by(f"from inlslab.cli import main\nassert main({args!r}) == 0") == []


def test_fixedpoint_evolve_loads_no_integrator(tmp_path):
    # the ODE integrators serve the shooting solver alone, and the virial
    # records' cutoff constants are refined in exact rationals, with no optimizer
    cfg = _write_config(tmp_path / "c.json", grid={"J": 256, "h": 1 / 16}, solver={"method": "fixedpoint"},
                        evolve={"dt": 0.002, "t_end": 0.01, "virial_R": 4.0})
    args = ["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    loaded = _scipy_loaded_by(f"from inlslab.cli import main\nassert main({args!r}) == 0")
    assert [m for m in loaded if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"])] == []
    with open(tmp_path / "out" / "trace.csv", newline="") as fh:
        budgets = [float(row["ext_budget"]) for row in csv.DictReader(fh)]
    assert len(budgets) == 2 and all(map(math.isfinite, budgets))  # the virial records ran


def test_evolve_boundary_leak_exits_4(tmp_path):
    cfg = _leaking_config(tmp_path / "c.json")
    proc = _run_cli_process("evolve", "--config", cfg, "--out", tmp_path / "out")
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr
    assert lines[0].startswith("error: numerical failure: outer-shell mass fraction")


@pytest.mark.parametrize("name", ["BoundaryLeak", "GradientBoundViolation", "LinearSolveFailure"])
def test_evolve_numerical_failures_exit_4(tmp_path, capsys, monkeypatch, name):
    from inlslab import evolve

    def failing_run(*args, **kwargs):
        raise getattr(evolve, name)("reason")

    monkeypatch.setattr(evolve, "run", failing_run)
    cfg = _write_config(tmp_path / "c.json", grid={"J": 256, "h": 1 / 16},
                        evolve={"dt": 0.002, "t_end": 0.01})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "error: numerical failure: reason\n"


def test_evolve_refuses_a_datum_whose_mass_overflows(tmp_path, capsys):
    # every value of the datum is finite, but its weighted mass overflows
    import numpy as np

    cfg = _write_config(tmp_path / "c.json", model={"N": 5, "alpha": 1.0, "b": 0.3}, grid={"J": 2048, "h": 1 / 8},
                        classify={"field": "gaussian(1e151,40)"},
                        evolve={"dt": 0.01, "t_end": 0.05, "linear_only": True})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "error: numerical failure: the datum's mass M0 = inf is not finite\n"


@pytest.mark.parametrize("subcommand", ["evolve", "classify"])
@pytest.mark.parametrize("N, alpha, amplitude, measure", [
    (5, 1.0, "1e160", "mass M0"),
    (3, 2.0, "1e160", "mass M0"),
    (3, 2.0, "1e151", "potential P0"),  # its mass is finite
])
def test_an_overflowing_datum_exits_4_with_one_line(tmp_path, subcommand, N, alpha, amplitude, measure):
    # every value of the datum is finite, but its measures overflow: the
    # diagnostic is the only line on stderr, with no numpy warning before it
    cfg = _write_config(tmp_path / "c.json", model={"N": N, "alpha": alpha, "b": 0.3}, grid={"J": 2048, "h": 1 / 8},
                        classify={"field": f"gaussian({amplitude},40)"},
                        evolve={"dt": 0.01, "t_end": 0.05, "linear_only": True})
    out = tmp_path / "out"
    proc = _run_cli_process(subcommand, "--config", cfg, "--out", out, timeout=60)
    assert proc.returncode == 4
    assert proc.stderr == f"error: numerical failure: the datum's {measure} = inf is not finite\n"
    assert proc.stdout == "" and not (out.exists() and any(out.iterdir()))  # no output file


def test_evolve_factorisation_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a singular Crank-Nicolson matrix is a numerical failure, not a config error
    import numpy as np

    from inlslab import evolve

    def singular(grid, c, scale=1.0):
        raise np.linalg.LinAlgError("I - c Lap is singular (gttrf info 1)")

    monkeypatch.setattr(evolve, "shifted_laplacian_solver", singular)
    cfg = _write_config(tmp_path / "c.json", grid={"J": 256, "h": 1 / 16},
                        evolve={"dt": 0.002, "t_end": 0.01})
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith("error: numerical failure: I - c Lap is singular")


def test_sweep_records_numerical_failure(tmp_path):
    cfg = _leaking_config(tmp_path / "c.json", sweep={"subcommand": "evolve"})
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "manifest.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["4"]
    error = (out / rows[0]["directory"] / "error.txt").read_text()
    assert error.startswith("numerical failure: outer-shell mass fraction")


def _unconverged_config(path, **overrides):
    # two fixed-point iterations cannot converge: a solver failure on a valid config
    return _write_config(
        path,
        grid={"J": 512, "h": 1 / 16},
        solver={"max_iter": 2},
        evolve={"dt": 0.002, "t_end": 0.01},
        **overrides,
    )


@pytest.mark.parametrize("subcommand", ["groundstate", "classify", "evolve"])
def test_solver_non_convergence_exits_4(tmp_path, subcommand):
    cfg = _unconverged_config(tmp_path / "c.json")
    proc = _run_cli_process(subcommand, "--config", cfg, "--out", tmp_path / "out")
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: numerical failure: no convergence after 2 iterations"]


@pytest.mark.parametrize("name, extra", [("NoBracket", ()), ("NoConvergence", ([],)), ("SolverFailure", ())])
def test_solver_failures_exit_4(tmp_path, capsys, monkeypatch, name, extra):
    from inlslab import groundstate

    def failing_solve(*args, **kwargs):
        raise getattr(groundstate, name)("reason", *extra)

    monkeypatch.setattr(groundstate, "solve_shooting", failing_solve)
    cfg = _write_config(tmp_path / "c.json", solver={"method": "shooting"})
    assert main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "error: numerical failure: reason\n"


def test_shooting_without_a_center_exits_4(tmp_path, capsys, monkeypatch):
    from inlslab import groundstate

    # three Brent steps cannot close the bracket: the real failure, not a stand-in
    monkeypatch.setattr(groundstate, "_BRENT_MAXITER", 3)
    cfg = _write_config(tmp_path / "c.json", solver={"method": "shooting"})
    assert main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: numerical failure: shooting: no center value in [")
    assert err[0].endswith("after 3 Brent steps")


def test_sweep_records_solver_failure_and_scope_error(tmp_path):
    # alpha = 4 lies beyond the N = 3 energy ceiling 3.4: a scope error stays exit 2
    cfg = _unconverged_config(
        tmp_path / "c.json", sweep={"subcommand": "groundstate", "alpha": [2, 4]},
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "manifest.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["4", "2"]
    errors = [(out / r["directory"] / "error.txt").read_text() for r in rows]
    assert errors[0] == "numerical failure: no convergence after 2 iterations\n"
    assert "outside the global-existence scope" in errors[1]


@pytest.mark.parametrize(
    "subcommand, overrides",
    [
        # NaN passed the h <= 0 check, and groundstate then never returned
        ("groundstate", {"grid": {"J": 1024, "h": float("nan")}}),
        ("params", {"model": {"N": 3, "alpha": float("nan"), "b": 0.3}}),
        ("params", {"model": {"N": 3, "alpha": float("inf"), "b": 0.3}}),
        ("classify", {"classify": {"field": "gaussian(NaN,1)"}}),
        ("classify", {"classify": {"field": "gaussian(1,0)"}}),
    ],
)
def test_non_finite_inputs_exit_2(tmp_path, subcommand, overrides):
    cfg = _write_config(tmp_path / "c.json", **overrides)
    proc = _run_cli_process(subcommand, "--config", cfg, "--out", tmp_path / "out", timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("h", [1e-300, 1e-100, 1e154, 1e300])
@pytest.mark.parametrize(
    "subcommand, method",
    [("groundstate", "shooting"), ("groundstate", "fixedpoint"), ("classify", "fixedpoint"), ("evolve", "fixedpoint")],
)
def test_mesh_width_out_of_float_range_exits_2(tmp_path, subcommand, method, h):
    # a quadrature weight or Laplacian entry that underflows to 0 or overflows
    # made a singular factorization, an IndexError or an OverflowError
    cfg = _write_config(tmp_path / "c.json", grid={"J": 64, "h": h}, solver={"method": method}, evolve=_EVOLVE)
    proc = _run_cli_process(subcommand, "--config", cfg, "--out", tmp_path / "out", timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: grid: mesh width "), proc.stderr


def test_groundstate_on_a_coarse_grid(tmp_path):
    # at h = 9 a Gaussian-mixture probe is so small on the grid that the
    # Weinstein quotient's denominator underflowed to 0 (ZeroDivisionError);
    # the shooting Q there has E(Q) > 0, so the probe runs
    cfg = _write_config(tmp_path / "c.json", grid={"J": 64, "h": 9.0}, solver={"method": "shooting"})
    proc = _run_cli_process("groundstate", "--config", cfg, "--out", tmp_path / "out", timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    with open(tmp_path / "out" / "sharp.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert math.isfinite(float(row["probe_max_quotient"]))


@pytest.mark.parametrize("h", [2.0, 9.0])
@pytest.mark.parametrize("subcommand", ["classify", "evolve", "groundstate"])
def test_threshold_of_an_unresolved_ground_state_exits_4(tmp_path, capsys, subcommand, h):
    # the fixed-point Q on these grids has E(Q) < 0 although s_c > 0:
    # classify reported a negative em_threshold with w = inf and exited 0,
    # and groundstate (solver.method both) wrote its identities and exited 0
    cfg = _write_config(tmp_path / "c.json", grid={"J": 64, "h": h}, evolve=_EVOLVE)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical failure: "), lines
    assert f"h={h}" in lines[0]


@pytest.mark.parametrize("subcommand", ["groundstate", "sweep"])
def test_negative_seed_exits_2(tmp_path, capsys, subcommand):
    # numpy's generator raised a ValueError traceback once the solve had written its files
    cfg = _write_config(tmp_path / "c.json", grid={"J": 256, "h": 1 / 16}, sweep={"subcommand": "groundstate"})
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a nonnegative integer, got -1\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("h", [1e-75, 1e-80])
def test_fixedpoint_with_an_overflowing_residual_exits_4(tmp_path, h):
    # the weights are ~1e-224, so the step distance passed the tolerance after
    # one iteration and solver.csv held a residual of inf
    cfg = _write_config(tmp_path / "c.json", grid={"J": 64, "h": h}, solver={"method": "fixedpoint"})
    proc = _run_cli_process("groundstate", "--config", cfg, "--out", tmp_path / "out", timeout=60)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical failure: fixedpoint: "), proc.stderr


@pytest.mark.parametrize("J", [3, 5])
@pytest.mark.parametrize("subcommand", ["classify", "evolve"])
def test_classifier_needs_six_cells(tmp_path, capsys, subcommand, J):
    # the mesh-halving error band coarsens to J // 2 cells, and a grid needs 3
    cfg = _write_config(tmp_path / "c.json", grid={"J": J, "h": 1 / 8}, evolve=_EVOLVE)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: grid.J must be at least 6 for the classifier's mesh-halving error band, got {J}\n"
    )


@pytest.mark.parametrize(
    "method, message",
    [("newton", "must be shooting, fixedpoint or both, got 'newton'"), (5, "must be a string, got 5")],
)
def test_bad_solver_method_exits_2(tmp_path, capsys, method, message):
    cfg = _write_config(tmp_path / "c.json", solver={"method": method})
    assert main(["groundstate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: solver.method {message}\n"


def test_sweep_records_non_finite_model_as_config_error(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        sweep={"subcommand": "params", "alpha": [2, float("nan"), float("inf")]},
    )
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "manifest.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["0", "2", "2"]
    assert "alpha must be positive and finite" in (out / rows[1]["directory"] / "error.txt").read_text()


def test_sweep_clears_earlier_point_directories(tmp_path):
    # a smaller sweep into the same directory keeps none of the earlier
    # sweep's points or files; what the sweep does not own stays
    out = tmp_path / "sw"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    (out / "point_data").mkdir()
    for sub, alphas in (("pairs", [2, 2.5]), ("params", [2])):
        cfg = _write_config(tmp_path / "c.json", sweep={"subcommand": sub, "alpha": alphas})
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "manifest.csv") as fh:
        assert [r["directory"] for r in csv.DictReader(fh)] == ["point_0000"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.csv", "notes.txt", "point_0000", "point_data"]
    assert [p.name for p in (out / "point_0000").iterdir()] == ["config.json"]  # params writes to stdout
    # a --field inside a point directory would be deleted before it is read
    kept = out / "point_0000" / "config.json"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--field", str(kept)]) == 2
    assert kept.exists()


def test_sweep_removes_stale_error_txt(tmp_path):
    # a point that now succeeds must not keep the error.txt of an earlier failure
    out = tmp_path / "sw"
    for alpha, status in ((float("nan"), "2"), (2, "0")):
        cfg = _write_config(tmp_path / "c.json", sweep={"subcommand": "params", "alpha": [alpha]})
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "manifest.csv") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == [status]
    assert not (out / "point_0000" / "error.txt").exists()


def test_failed_sweep_leaves_no_earlier_results(tmp_path, capsys):
    # a sweep that exits 2 on sweep.subcommand kept an earlier sweep's
    # manifest.csv and point directories, which read as its own results
    out = tmp_path / "sw"
    for sub, status in (("params", 0), ("nope", 2)):
        cfg = _write_config(tmp_path / "c.json", sweep={"subcommand": sub, "alpha": [1.5, 2]})
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == status
        if status == 0:
            assert sorted(p.name for p in out.iterdir()) == ["manifest.csv", "point_0000", "point_0001"]
    assert "sweep.subcommand" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# a config every subcommand runs in well under a second
_SMALL = {
    "model": {"N": 3, "alpha": 2, "b": 0.3},
    "grid": {"J": 64, "h": 0.125},
    "solver": {"method": "both", "tol": 1e-12, "max_iter": 500},
    "evolve": {"dt": 0.01, "t_end": 0.05, "record_every": 1, "virial_R": 2.0, "linear_only": False},
    "pairs": {"eps": "1/100"},
    "classify": {"field": "gaussian(0.5,1.0)"},
    "sweep": {"subcommand": "params", "N": [3], "alpha": [2.0], "b": [0.3]},
    "output": {"directory": ".", "precision": 12},
}


def _small_config(path, section=None, key=None, value=None):
    cfg = {sec: dict(vals) for sec, vals in _SMALL.items() if sec != "sweep"}
    if key is not None:
        cfg.setdefault(section, {})[key] = value
    elif section is not None:  # a whole section
        cfg[section] = value
    path.write_text(json.dumps(cfg))
    return path


_WRONG_TYPES = [None, [1], {"a": 1}]


@pytest.mark.parametrize(
    "subcommand, section, key, value",
    [
        *(("evolve", sec, key, v)
          for sec, key in [("model", "alpha"), ("model", "b"), ("grid", "J"), ("grid", "h"),
                           ("solver", "tol"), ("solver", "max_iter"), ("evolve", "dt"),
                           ("evolve", "t_end"), ("evolve", "record_every")]
          for v in _WRONG_TYPES),
        ("evolve", "evolve", "virial_R", [1]),
        ("evolve", "evolve", "virial_R", {"a": 1}),
        *(("evolve", sec, key, v)
          for sec, key in [("grid", "J"), ("solver", "max_iter"), ("evolve", "record_every")]
          for v in (float("inf"), float("-inf"))),
        ("evolve", "output", "precision", True),
        ("evolve", "output", "directory", None),
        ("evolve", "output", "directory", 5),
        *(("evolve", "solver", "tol", v) for v in (float("nan"), 0, -1e-12, float("-inf"))),
        *(("evolve", "solver", "max_iter", v) for v in (0, -1, True)),
        ("evolve", "evolve", "linear_only", "false"),
        ("params", "model", "N", 1),
        ("params", "model", "alpha", "2"),
        ("params", "seed", None, 5),
        # a JSON bool is not the number 1 or 0
        ("pairs", "pairs", "eps", True),
        ("pairs", "pairs", "theta", True),
        ("pairs", "pairs", "theta", False),
        # neither a number nor a fraction string, or one with a zero denominator
        *(("pairs", "pairs", "theta", v) for v in ([1], "abc", "1/0", {"a": 1})),
        ("pairs", "pairs", "eps", None),
    ],
)
def test_wrong_config_values_exit_2(tmp_path, capsys, subcommand, section, key, value):
    cfg = _small_config(tmp_path / "c.json", section, key, value)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    name = "dimension" if key == "N" else "'seed'" if key is None else f"{section}.{key}"
    assert name in err[0], err


@pytest.mark.parametrize(
    "sweep, name",
    [({}, "sweep.subcommand"), ({"subcommand": "sweep"}, "sweep.subcommand"),
     ({"subcommand": "params", "N": "3"}, "sweep.N"),
     # an explicit null is not a list: it once fell back to model.*
     ({"subcommand": "params", "N": None}, "sweep.N"),
     ({"subcommand": "params", "alpha": None}, "sweep.alpha"),
     ({"subcommand": "params", "b": None}, "sweep.b")],
)
def test_sweep_values_name_their_key(tmp_path, capsys, sweep, name):
    cfg = _small_config(tmp_path / "c.json", "sweep", value=sweep)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0], err


@pytest.mark.parametrize(
    "content", ["", "r,re,im\n", "r,re,im\n0.0625,1,0\n0.1875\n", "x,y,z\n1,2,3\n",
                "r,re,im\n0.0625,one,0\n0.1875,1,0\n0.3125,1,0\n", "r,re,im\n\x00,1,0\n"],
)
def test_malformed_field_csv_exits_2(tmp_path, capsys, content):
    field = tmp_path / "field.csv"
    field.write_text(content)
    cfg = _small_config(tmp_path / "c.json")
    assert main(["classify", "--config", str(cfg), "--field", str(field)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --field "), err


def test_valid_small_config_runs_every_subcommand(tmp_path, capsys):
    # the configs the generated test below starts from succeed as they stand
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_SMALL))
    for sub in ("params", "pairs", "groundstate", "classify", "evolve", "sweep"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0, sub
    assert capsys.readouterr().err == ""


_OMIT = object()
_ODD_VALUES = [_OMIT, float("nan"), float("inf"), float("-inf"), 0, -1, "x", [1], None, True]
_SCHEMA_KEYS = [(sec, key) for sec in sorted(cli._SCHEMA) for key in sorted(cli._SCHEMA[sec])]


@st.composite
def _generated_configs(draw):
    """The small config with up to three keys of cli._SCHEMA set to an odd
    value or left out, and the subcommand to run it with."""
    valid = {
        **{(sec, key): value for sec, keys in _SMALL.items() for key, value in keys.items()},
        ("solver", "method"): draw(st.sampled_from(["both", "shooting", "fixedpoint"])),
        ("sweep", "subcommand"): draw(st.sampled_from(["params", "pairs", "groundstate", "classify", "evolve"])),
    }
    odd = draw(st.dictionaries(st.sampled_from(_SCHEMA_KEYS), st.sampled_from(_ODD_VALUES), max_size=3))
    cfg = {}
    for sec, key in _SCHEMA_KEYS:
        value = odd.get((sec, key), valid.get((sec, key), _OMIT))
        if value is not _OMIT:
            cfg.setdefault(sec, {})[key] = value
    return draw(st.sampled_from(sorted(cli._DISPATCH))), cfg


@settings(max_examples=150, deadline=None)
@given(case=_generated_configs())
def test_generated_configs_exit_with_a_documented_code(case):
    subcommand, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main([subcommand, "--config", path, "--out", os.path.join(tmp, "out")])
    event(f"exit {status}")  # --hypothesis-show-statistics shows the spread
    assert status in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
