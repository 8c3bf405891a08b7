"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload turns a seed into plain inputs (numbers, config dicts,
exact rationals), and a pass feeds only those inputs to the package, checks
every output against the pinned acceptance tolerances of
``tests/test_acceptance.py`` and returns what the harness needs, among it a
digest of the science outputs, which must be byte-identical across passes of
one seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

from inlslab import cli, evolve, exponents, functionals, grid, groundstate, params

MODULES = {
    "cli": cli,
    "params": params,
    "exponents": exponents,
    "grid": grid,
    "groundstate": groundstate,
    "functionals": functionals,
    "evolve": evolve,
}

# the acceptance suite's REFERENCE_POINTS
REFERENCE_POINTS = [(3, 2.0, 0.3), (2, 3.0, 0.2), (4, 1.2, 0.25)]


class Checks:
    """Counts correctness checks; a failed one keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def seeded_gaussian(rng: np.random.Generator) -> tuple[float, float]:
    """Amplitude and width of a Gaussian datum.

    The band [0.4, 0.6] x [0.8, 1.2] classifies GlobalScatters at the README
    point and at every reference point, with the mass-energy product at most
    a third of its threshold, so no seed lands near the threshold.
    """
    return round(float(rng.uniform(0.4, 0.6)), 6), round(float(rng.uniform(0.8, 1.2)), 6)


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return path


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _tree_digest(directory: str) -> tuple[str, int]:
    """sha256 over every file below `directory` in path order, and their total size."""
    digest, size = hashlib.sha256(), 0
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, directory).encode() + b"\0" + data)
            size += len(data)
    return digest.hexdigest(), size


def _rel_drift(series) -> float:
    series = np.asarray(series, dtype=float)
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


class Workload:
    name = ""
    # span names whose return value a pass reads back from the tracer
    capture: tuple[str, ...] = ()
    # (J, h, dt, model) of the Strang stepper the workload exercises, if any
    stepper = None

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def run_pass(self, inputs: dict, tracer, workdir: str, checks: Checks, boundary) -> dict:
        """Run once; returns {"digest", "bytes_written", "energy_drift"} and,
        for a decay check, the Crank-Nicolson steps it took as "decay_steps".

        A pass longer than about a second calls `boundary()` between its
        units of work, where the harness may time its reference kernel.
        """
        raise NotImplementedError


class EvolveReadme(Workload):
    """`inlslab evolve` through cli.main on the README config."""

    name = "evolve-readme"
    capture = ("functionals.classify",)
    stepper = (4096, 1 / 64, 5e-4, (3, 2.0, 0.3))

    def make_inputs(self, seed, smoke):
        amp, width = seeded_gaussian(np.random.default_rng(seed))
        t_end = 0.05 if smoke else 0.5
        config = {
            "model": {"N": 3, "alpha": 2, "b": 0.3},
            "grid": {"J": 4096, "h": 0.015625},
            "solver": {"method": "fixedpoint"},
            "evolve": {"dt": 0.0005, "t_end": t_end, "record_every": 20, "virial_R": 12.0},
            "classify": {"field": f"gaussian({amp!r},{width!r})"},
            "output": {"precision": 12},
        }
        return {"config": config, "seed": seed, "steps": round(t_end / 0.0005)}

    def run_pass(self, inputs, tracer, workdir, checks, boundary):
        cfg = _write_json(os.path.join(workdir, "config.json"), inputs["config"])
        out = os.path.join(workdir, "out")
        status = cli.main(["evolve", "--config", cfg, "--out", out, "--seed", str(inputs["seed"])])
        checks.check("evolve exit status", status == 0, status)
        verdict = tracer.results["functionals.classify"].verdict
        checks.check("verdict", verdict == "GlobalScatters", verdict)
        rows = _read_rows(os.path.join(out, "trace.csv"))
        mass_drift = _rel_drift([r["mass"] for r in rows])
        energy_drift = _rel_drift([r["energy"] for r in rows])
        checks.check("mass drift", mass_drift <= 1e-10, mass_drift)
        checks.check("energy drift", energy_drift <= 1e-6, energy_drift)
        checks.check("records", len(rows) == inputs["steps"] // 20 + 1, len(rows))
        rig = _read_rows(os.path.join(out, "rigidity.csv"))[0]
        checks.check("rigidity holds", rig["holds"] == "true", rig)
        checks.check("rigidity integrated", rig["integrated_holds"] == "true", rig)
        digest, size = _tree_digest(out)
        return {"digest": digest, "bytes_written": size, "energy_drift": energy_drift}


class EvolveSoliton(Workload):
    """The soliton-persistence shape: Q evolved at dt = 2.5e-7 on J = 256."""

    name = "evolve-soliton"
    stepper = (256, 1 / 16, 2.5e-7, (3, 2.0, 0.3))

    def make_inputs(self, seed, smoke):
        # the datum is the ground state itself, so the seed selects nothing
        return {"seed": seed, "steps": 400 if smoke else 8000}

    def run_pass(self, inputs, tracer, workdir, checks, boundary):
        J, h, dt, model = self.stepper
        p = params.ModelParams(*model)
        g = grid.RadialGrid(J=J, h=h, N=p.N)
        gs = groundstate.solve_fixedpoint(p, g, tol=1e-14)
        config = evolve.EvolutionConfig(
            params=p, J=J, h=h, dt=dt, t_end=inputs["steps"] * dt, record_every=1_000_000,
        )
        trace = evolve.run(g.field(gs.profile.values.astype(complex)), config)
        dev = np.abs(trace.final_field.values) - gs.profile.values
        err = math.sqrt(float(np.sum(g.weights * dev**2)))
        checks.check("soliton deviation", err <= 1e-4, err)
        mass_drift = _rel_drift(trace.mass_series)
        checks.check("mass drift", mass_drift <= 1e-10, mass_drift)
        checks.check("records", len(trace.times) == 2, len(trace.times))
        digest = hashlib.sha256(trace.final_field.values.tobytes()).hexdigest()
        return {"digest": digest, "bytes_written": 0, "energy_drift": 0.0}


class VerifyReference(Workload):
    """`inlslab groundstate` (both solvers) at each reference point, the
    threshold classification of a seeded Gaussian there, and one free-flow
    decay check."""

    name = "verify-reference"
    capture = ("groundstate.solve_fixedpoint",)
    decay_dt = 2e-3

    def make_inputs(self, seed, smoke):
        rng = np.random.default_rng(seed)
        amp, width = seeded_gaussian(rng)
        return {
            "seed": seed,
            "gaussian": (amp, width),
            "probe_seed": int(rng.integers(0, 2**31 - 1)),
            "points": REFERENCE_POINTS[:1] if smoke else REFERENCE_POINTS,
            "decay_times": [1.0] if smoke else [1.0, 2.0, 5.0, 10.0],
        }

    def run_pass(self, inputs, tracer, workdir, checks, boundary):
        for k, (n, alpha, b) in enumerate(inputs["points"]):
            cfg = _write_json(os.path.join(workdir, f"point{k}.json"), {
                "model": {"N": n, "alpha": alpha, "b": b},
                "grid": {"J": 4096, "h": 1 / 256},
                "solver": {"method": "both"},
                "output": {"precision": 12},
            })
            out = os.path.join(workdir, "out", f"point{k}")
            status = cli.main(["groundstate", "--config", cfg, "--out", out,
                               "--seed", str(inputs["probe_seed"])])
            checks.check("groundstate exit status", status == 0, status)
            ids = {r["identity"]: r for r in _read_rows(os.path.join(out, "identities.csv"))}
            # GS1 lhs is |grad Q|^2, its rhs a fixed multiple of M[Q]; GS2 lhs is P(Q)
            cross = max(
                abs(float(ids[f"{key}:fixedpoint"][side]) - float(ids[f"{key}:shooting"][side]))
                / abs(float(ids[f"{key}:shooting"][side]))
                for key, side in (("GS1", "lhs"), ("GS1", "rhs"), ("GS2", "lhs"))
            )
            checks.check("cross-solver agreement", cross <= 1e-4, (n, alpha, b, cross))
            residual = max(float(ids[f"{key}:fixedpoint"]["rel_residual"]) for key in ("GS1", "GS2", "EGS"))
            checks.check("identity residual", residual <= 1e-4, (n, alpha, b, residual))
            sharp = _read_rows(os.path.join(out, "sharp.csv"))[0]
            checks.check("sharp-constant gap", float(sharp["rel_gap"]) <= 1e-3, (n, alpha, b, sharp))
            checks.check("GN probe", sharp["probe_holds"] == "true", (n, alpha, b, sharp))

            gs = tracer.results["groundstate.solve_fixedpoint"]
            u0 = grid.gaussian_field(gs.profile.grid, *inputs["gaussian"])
            verdict = functionals.classify(u0, gs).verdict
            checks.check("verdict", verdict == "GlobalScatters", (n, alpha, b, verdict))
            lgs = functionals.lgs_verify(u0, gs)
            slack = min(lgs.slack_coercivity, lgs.slack_gradient, lgs.slack_virial)
            checks.check("coercivity chain", lgs.hypotheses_ok and slack >= 0, (n, alpha, b, lgs))
            boundary()

        p = params.ModelParams(3, 2.0, 0.3)
        rep = functionals.linear_decay_check(p, math.inf, inputs["decay_times"],
                                             dt=self.decay_dt, r_max=80.0)
        exact = (1 + 16 * rep.times**2) ** (-3 / 4)
        sup_err = float(np.max(np.abs(rep.lp_numeric - exact) / exact))
        checks.check("decay sup error", sup_err <= 0.01, sup_err)
        digest, size = _tree_digest(os.path.join(workdir, "out"))
        digest = hashlib.sha256((digest + rep.lp_numeric.tobytes().hex()).encode()).hexdigest()
        steps = round(max(inputs["decay_times"]) / self.decay_dt)
        return {"decay_steps": steps, "digest": digest, "bytes_written": size, "energy_drift": 0.0}


def scope_point(rng: random.Random, n: int) -> tuple[int, Fraction, Fraction]:
    """An exact in-scope (N, alpha, b), drawn as the acceptance sweep draws them."""
    b_cap = Fraction(min(n, 3), 3) if n >= 3 else Fraction(2, 3)
    b = Fraction(rng.randint(1, 99), 100) * min(Fraction(99, 100), b_cap)
    lo = Fraction(4 - 2 * b, n)
    if n == 2:
        hi = lo + 4
    elif n == 3:
        hi = 3 - 2 * b  # the stricter scattering ceiling in three dimensions
    else:
        hi = Fraction(4 - 2 * b, n - 2)
    return n, lo + Fraction(rng.randint(5, 95), 100) * (hi - lo), b


class CertificateSweep(Workload):
    """certificate_rows + appendix_checks over seeded exact in-scope points."""

    name = "certificate-sweep"

    def make_inputs(self, seed, smoke):
        # equally many points per dimension: the cost of a point depends on
        # N, so stratifying keeps the pass cost from drifting with the seed
        rng = random.Random(seed)
        per_n = 8 if smoke else 250
        return {"seed": seed, "points": [scope_point(rng, n) for n in (2, 3, 4, 5) for _ in range(per_n)]}

    def run_pass(self, inputs, tracer, workdir, checks, boundary):
        digest = hashlib.sha256()
        for k, (n, alpha, b) in enumerate(inputs["points"]):
            if k and n != inputs["points"][k - 1][0]:
                boundary()  # one unit per dimension
            try:
                rows = exponents.certificate_rows(n, alpha, b)
                app = exponents.appendix_checks(n, alpha, b, rows[-1]["theta"])
            except ValueError as exc:
                checks.check("certificate", False, (n, alpha, b, exc))
                continue
            checks.check("admissible", all(r["admissible"] for r in rows), (n, alpha, b))
            checks.check("identity residual", all(r["identity_residual"] == 0 for r in rows), (n, alpha, b))
            checks.check("appendix equivalent", all(r["equivalent"] for r in app), (n, alpha, b))
            digest.update(repr((rows, app)).encode())
        return {"digest": digest.hexdigest(), "bytes_written": 0, "energy_drift": 0.0}


WORKLOADS = {w.name: w for w in (EvolveReadme(), EvolveSoliton(), VerifyReference(), CertificateSweep())}
