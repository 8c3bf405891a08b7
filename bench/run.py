"""Benchmark launcher for inlslab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with only
the timers installed that capture results a pass checks; ``--trace 1`` alternates
untraced passes with traced ones and reports the per-layer metrics.  The last
line of standard output is the result object; the full record (machine,
versions, sample counts, percentiles, failed checks) goes to
``.bench_out/`` together with the spans of a traced run.  ``--smoke`` runs a
reduced size of the workload with every check on.

End-to-end times are host-normalised: every stretch of measured work is
divided by the time of a fixed reference kernel run just before and just
after it, and scaled to a host on which that kernel takes ``REF_NOMINAL_S``.
On a shared host the speed of the whole machine changes by 20-50% in phases
of seconds to minutes; the ratio cancels those phases, a wall time cannot.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy loads; the benchmark is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 7  # fresh interpreters per run for setup_s
# timed (or traced) passes per run, whatever --seconds says: the median of
# three drops one badly normalised pass, the mean of two would not
MIN_PASSES = 3
LINEAR_PROBE_STEPS = 2000
# seconds of the reference kernel on the nominal host that normalised times refer to
REF_NOMINAL_S = 0.025
# the package layers plus the harness's own glue ("bench")
SELF_LAYERS = tracing.LAYERS + ("bench",)
EXACT_COUNTS = ("groundstate.shots", "exponents.family_calls_per_point",
                "grid.radial_derivative.calls_per_record", "evolve.steps", "evolve.records")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, checks on")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    return {
        "median": statistics.median(ordered),
        "p90": ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))],
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def machine_info() -> dict:
    import numpy
    import scipy
    import tomllib

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    with open(ROOT / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    source = hashlib.sha256()
    for path in sorted((SRC / "inlslab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    ) if shutil.which("git") else None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "inlslab": version,
        "git_commit": commit.stdout.strip() if commit and commit.returncode == 0 else None,
        "source_sha256": source.hexdigest(),
    }


class Reference:
    """A fixed kernel that measures how fast the host runs now.

    Its time is the geometric mean of two parts, 200 rounds of a phase
    multiply and a tridiagonal `solve_banded` on 1024 complex values, and
    2000 small exact-Fraction expressions, because the workloads mix numpy
    calls with pure-Python arithmetic and a host's slow phases do not slow
    the two alike.  It uses neither the package nor anything a later change
    to the package can alter.  `normalise` scales a stretch of work by the
    kernel times measured just before and just after it.
    """

    J = 1024
    ROUNDS = 200
    FRACTIONS = 2000

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        self.np, self.solve_banded = np, solve_banded
        self.v0 = np.random.default_rng(0).random(self.J) + 0j
        # tridiag(-1, 3, -1): eigenvalues in [1, 5], so the state neither grows nor vanishes
        self.bands = np.full((3, self.J), -1 + 0j)
        self.bands[1] = 3
        self.times: list[float] = []
        self.measure()  # untimed: the first call pays for allocations
        self.times.clear()
        self.measure()

    def measure(self) -> float:
        np, v = self.np, self.v0
        start = time.perf_counter()
        for _ in range(self.ROUNDS):
            v = self.solve_banded((1, 1), self.bands, v * np.exp(1j * np.abs(v) ** 2))
        middle = time.perf_counter()
        below = 0
        for k in range(1, self.FRACTIONS):
            x, y = Fraction(k % 7 + 1, k % 11 + 2), Fraction(3, k % 5 + 4)
            below += (x * y - x / 3 + y) / (x + 1) <= 1
        end = time.perf_counter()
        self.times.append(math.sqrt((middle - start) * (end - middle)))
        return self.times[-1]

    def normalise(self, seconds: float, before: float, after: float) -> float:
        return seconds * REF_NOMINAL_S / math.sqrt(before * after)


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and make the
    inputs, raw and normalised.

    Each interpreter then times the reference kernel itself and reports it;
    a kernel timed in the launcher tracked set-up time far worse, as the
    interpreter may run on the other CPU.  The kernel's own time is taken out
    of the sample.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, normalised = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        out = subprocess.run(cmd, check=True, cwd=ROOT, timeout=120, capture_output=True, text=True)
        wall = time.perf_counter() - start
        kernel, kernel_wall = map(float, out.stdout.split())
        raw.append(wall - kernel_wall)
        normalised.append(raw[-1] * REF_NOMINAL_S / kernel)
    return raw, normalised


def setup_probe(args) -> None:
    """The body of one set-up sample, then the kernel timings it reports."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload].make_inputs(args.seed, args.smoke)
    start = time.perf_counter()
    ref = Reference()
    ref.measure()
    ref.measure()
    print(statistics.median(ref.times), time.perf_counter() - start)


def step_model(J: int) -> tuple[int, int]:
    """Computed (bytes moved, floating-point operations) of one Strang step on J cells.

    Minimal traffic: each half phase reads the complex128 state and the
    float64 phase coefficient and writes the state (40 B/cell); the
    Crank-Nicolson step applies a complex tridiagonal (3 diagonals + state
    in, state out: 80 B/cell) and solves with its LU factors (4 diagonals +
    right-hand side in, state out: 96 B/cell); the finiteness scan reads the
    state (16 B/cell).  Index arrays, temporaries and cache misses are left
    out.  Operations per cell: a half phase is |v|, the power, the scaling,
    exp(i.) and a complex product (14 flops); the tridiagonal product is 3
    complex products and 2 sums (22); the two triangular sweeps are 2 complex
    products, 2 sums and a complex division (27).
    """
    return J * (2 * 40 + 80 + 96 + 16), J * (2 * 14 + 22 + 27)


def record_windows(tree) -> list[float]:
    """Durations of the records taken inside evolve.run, from span timestamps.

    evolve.run's direct children are the Evolver set-up, the steps and, for
    each record, a grid.grad_norm_sq_form call among others.  A record is the
    gap between the set-up or a step and the next step (or the end of the
    run) that holds such a call, so loop overhead between unrecorded steps and
    the factorisation are not counted as record time.
    """
    spans, windows = tree.spans, []
    for run in tree.indices("evolve.run"):
        gap_start, in_record = spans[run][1], False
        for i in tree.children(run):
            name, start, stop, _ = spans[i]
            if name in ("evolve.step", "evolve.Evolver.init"):
                if in_record:
                    windows.append(start - gap_start)
                gap_start, in_record = stop, False
            elif name == "grid.grad_norm_sq_form":
                in_record = True
        if in_record:
            windows.append(spans[run][2] - gap_start)
    return windows


def layer_metrics(tree, workload, pass_info) -> dict:
    """The per-layer metrics of one traced pass."""
    m = {}
    windows = record_windows(tree)
    records = len(windows)
    m["evolve.steps"] = tree.count("evolve.step")
    m["evolve.step.us"] = tree.mean("evolve.step") * 1e6
    run_time = tree.total("evolve.run")
    m["evolve.steps_per_s"] = m["evolve.steps"] / run_time if run_time else 0.0
    m["evolve.records"] = records
    m["evolve.record.us"] = statistics.fmean(windows) * 1e6 if records else 0.0
    m["evolve.virial_series.us"] = tree.mean("evolve.virial_series") * 1e6
    m["evolve.rigidity_check.ms"] = tree.mean("evolve.rigidity_check") * 1e3
    m["evolve.scattering_diagnostic.ms"] = tree.mean("evolve.scattering_diagnostic") * 1e3
    m["evolve.Evolver.init_ms"] = tree.mean("evolve.Evolver.init") * 1e3
    m["evolve.energy_drift"] = pass_info["energy_drift"]
    bytes_step, ops_step = step_model(workload.stepper[0]) if workload.stepper else (0, 0)
    m["evolve.step.bytes_computed"] = bytes_step
    m["evolve.step.ops_computed"] = ops_step

    m["grid.grad_norm_sq_form.us"] = tree.mean("grid.grad_norm_sq_form") * 1e6
    m["grid.potential_term.us"] = tree.mean("grid.potential_term") * 1e6
    m["grid.radial_derivative.us"] = tree.mean("grid.radial_derivative") * 1e6
    m["grid.radial_derivative.calls_per_record"] = (
        tree.count_within("grid.radial_derivative", "evolve.run") / records if records else 0.0
    )
    m["grid.laplacian_radial.calls"] = tree.count("grid.laplacian_radial")

    solves = tree.count("groundstate.solve_shooting")
    m["groundstate.solve_shooting.s"] = tree.mean("groundstate.solve_shooting")
    m["groundstate.shots"] = tree.count("groundstate.shot") / solves if solves else 0.0
    m["groundstate.shot.ms"] = tree.mean("groundstate.shot") * 1e3
    m["groundstate.shooting_residual.ms"] = tree.mean("groundstate.shooting_residual") * 1e3
    m["groundstate.gn_maximality_probe.ms"] = tree.mean("groundstate.gn_maximality_probe") * 1e3
    fp = tree.count("groundstate.solve_fixedpoint")
    m["groundstate.solve_fixedpoint.ms"] = tree.mean("groundstate.solve_fixedpoint") * 1e3
    # one laplacian_radial per iteration plus one for the final residual
    m["groundstate.fixedpoint_iters"] = (
        (tree.count_within("grid.laplacian_radial", "groundstate.solve_fixedpoint", direct=True) - fp) / fp
        if fp else 0.0
    )

    decay_time = tree.total("functionals.linear_decay_check")
    m["functionals.linear_decay_check.s"] = tree.mean("functionals.linear_decay_check")
    m["functionals.decay_steps_per_s"] = (
        pass_info["decay_steps"] / decay_time if decay_time else 0.0
    )
    m["functionals.classify.ms"] = tree.mean("functionals.classify") * 1e3
    m["functionals.lgs_verify.ms"] = tree.mean("functionals.lgs_verify") * 1e3

    points = tree.count("exponents.certificate_rows")
    families = sum(tree.count(f"exponents.family_{f}") for f in ("lemma43", "claim1", "claim2"))
    m["exponents.certificate_rows.ms"] = tree.mean("exponents.certificate_rows") * 1e3
    m["exponents.appendix_checks.ms"] = tree.mean("exponents.appendix_checks") * 1e3
    m["exponents.family_calls_per_point"] = families / points if points else 0.0
    m["exponents.default_theta.calls"] = tree.count("exponents.default_theta")

    m["params.validate_scope.us"] = tree.mean("params.validate_scope") * 1e6
    m["params.validate_scope.calls"] = tree.count("params.validate_scope")
    m["cli.bytes_written"] = pass_info["bytes_written"]
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = tree.layer_self.get(layer, 0.0)
    m["trace.wall_s"] = tree.wall
    return m


def linear_probe(tracer, workload) -> tuple[float, float]:
    """Mean traced step time of a full and a linear_only Evolver on the
    workload's grid and dt, from one Gaussian state, through the same
    wrapper as the traced passes."""
    from inlslab import evolve, grid, params

    J, h, dt, model = workload.stepper
    g = grid.RadialGrid(J=J, h=h, N=model[0])
    v0 = grid.gaussian_field(g, 0.5, 1.0).values.astype(complex)
    means = []
    for linear_only in (False, True):
        ev = evolve.Evolver(g, params.ModelParams(*model), dt, linear_only=linear_only)
        tracer.wrap(evolve.Evolver, "step_values", "evolve.step")
        try:
            with tracer.root("bench.probe") as root:
                v = v0
                for _ in range(LINEAR_PROBE_STEPS):
                    v = ev.step_values(v)
        finally:
            tracer.restore()
        means.append(tracing.Subtree(tracer.spans, root, len(tracer.spans)).mean("evolve.step"))
    return means[0], means[1]


def run_passes(args, workload, inputs, checks, ref):
    """Warm up, then time passes for --seconds; returns the passes by kind,
    the tracer and, for a traced run of a stepping workload, the step probe.

    An untraced pass times the reference kernel at each unit boundary the
    workload marks and once at its end; a traced pass only at its end, so
    that no kernel time lands inside its spans.  Each stretch between two
    kernel timings is normalised by those two timings.
    """
    from workloads import MODULES

    timers = [(MODULES[n.partition(".")[0]], n.partition(".")[2], n) for n in workload.capture]
    full = tracing.package_targets(MODULES)
    tracer = tracing.Tracer()
    passes = {"untraced": [], "traced": []}
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)

    def one_pass(kind, pass_inputs):
        pass_dir = tempfile.mkdtemp(dir=workdir)
        tracer.install(full if kind == "traced" else timers, capture=workload.capture)
        segments = []  # (seconds, normalised seconds) between kernel timings

        def boundary():
            nonlocal mark
            end = time.perf_counter()
            before, after = ref.times[-1], ref.measure()
            segments.append((end - mark, ref.normalise(end - mark, before, after)))
            mark = time.perf_counter()

        try:
            mark = time.perf_counter()
            with tracer.root("bench.pass") as root:
                info = workload.run_pass(pass_inputs, tracer, pass_dir, checks,
                                         boundary if kind == "untraced" else lambda: None)
            boundary()
        finally:
            tracer.restore()
            shutil.rmtree(pass_dir)
        tree = tracing.Subtree(tracer.spans, root, len(tracer.spans))
        info["tree"] = tree
        info["wall"] = sum(seconds for seconds, _ in segments)
        info["norm_wall"] = sum(norm for _, norm in segments)
        if kind == "traced":
            info["layers"] = layer_metrics(tree, workload, info)
        return info

    try:
        # a smoke-size pass loads lazy imports and first-call state untimed
        one_pass("untraced", workload.make_inputs(args.seed, True))
        del tracer.spans[:]
        measured = "traced" if args.trace else "untraced"
        start = time.perf_counter()
        while len(passes[measured]) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            # a traced run alternates, starting traced, so both kinds see the same drift
            kind = measured
            if args.trace and len(passes["traced"]) > len(passes["untraced"]):
                kind = "untraced"
            passes[kind].append(one_pass(kind, inputs))
        probe = linear_probe(tracer, workload) if args.trace and workload.stepper else (0.0, 0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return passes, tracer, probe


def run_benchmark(args, declared: dict) -> tuple[dict, dict]:
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload]
    checks = Checks()
    ref = Reference()
    setup_raw, setup = setup_seconds(args) if args.trace == 0 else ([], [])
    inputs = workload.make_inputs(args.seed, args.smoke)
    passes, tracer, probe = run_passes(args, workload, inputs, checks, ref)

    everything = passes["untraced"] + passes["traced"]
    for info in everything[1:]:
        checks.check("outputs identical across passes", info["digest"] == everything[0]["digest"])
    untraced = passes["untraced"]
    raw = {"raw.wall_s": [info["wall"] for info in untraced], "raw.setup_s": setup_raw}
    if args.trace == 0:
        samples = {
            "norm_wall_s": [info["norm_wall"] for info in untraced],
            "setup_s": setup,
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        }
    else:
        traced = passes["traced"]
        layers = [info["layers"] for info in traced]
        for key in EXACT_COUNTS:
            values = {m[key] for m in layers}
            checks.check(f"{key} repeats exactly", len(values) == 1, sorted(values))
        for info in traced:
            # the pass's wall is timed outside the spans, not taken from them
            gap = abs(sum(info["tree"].layer_self.values()) - info["wall"])
            checks.check("layer self times add up to the pass wall", gap <= 1e-3, gap)
            checks.check("spans nest inside their parents", info["tree"].nested())
        samples = {key: [m[key] for m in layers] for key in layers[0]}
        samples["trace.overhead_s"] = [
            statistics.median(info["norm_wall"] for info in traced)
            - statistics.median(info["norm_wall"] for info in untraced)
        ]
        samples["raw.wall_s"] = raw["raw.wall_s"]
        samples["host.ref_ms"] = [t * 1e3 for t in ref.times]
        step_full, step_linear = probe
        samples["evolve.step_linear.us"] = [step_linear * 1e6]
        samples["evolve.phase.us"] = [(step_full - step_linear) / 2 * 1e6]
        write_spans(tracer.spans, args)
    if set(samples) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(samples) ^ set(declared))}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {key: {"value": statistics.median(vals), "unit": declared[key]}
                    for key, vals in samples.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "ref_nominal_s": REF_NOMINAL_S,
        "samples": {key: summary(vals) for key, vals in {**raw, **samples}.items() if vals},
        "reference_s": summary(ref.times),
        "failures": checks.failures,
    }
    return result, record


def write_spans(spans, args) -> None:
    """All spans of a traced run, one [name, start, end, parent] per line."""
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "inlslab" / "cli.py").is_file():
        print(f"error: no inlslab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result, record = run_benchmark(args, declared)
    record["machine"] = machine_info()
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(OUT / name, "w") as fh:
        json.dump({**record, "result": result}, fh, indent=2)
    print(json.dumps({"machine": record["machine"], "failures": record["failures"][:10]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
