#!/usr/bin/env python3
"""Benchmark of lambda-asg: one workload per process, a fixed pass of work
repeated for a stated time.

    python3 bench/run.py --workload mc_marginals --seed 1 --seconds 30 --trace 0

Run it from any directory; it finds the program under ``src/`` next to its
own directory and writes artifacts under ``.bench_out/``.  Each pass runs
the workload's operations one after another in this process (a closed loop
with one client, the program at ``--threads 1`` and one BLAS thread).
Passes repeat until ``--seconds`` have elapsed.  The first pass warms up
(lazy imports, caches) and is checked but not timed.  A fixed reference
kernel of the operation's kind of work runs just before and just after every
operation.  Each operation is timed by the median over the other passes of
its time over the kernel's mean, times the kernel's ``REFERENCE_S``: seconds
at a fixed host speed.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, per-stage times and any failures.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
its per-layer metrics.  See ``bench/README.md``.
"""

import os

# one BLAS thread, matching the program's --threads 1; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("mc_marginals", "exact_oracles", "per_path")
# set-up is timed in this many fresh processes; the median is reported
SETUP_PROBES = {"full": 3, "toy": 1}
# The shared host's speed drifts by up to 1.9x over minutes, and a fixed
# reference kernel slows with it, so an operation's time over the kernel
# times around it tracks the program rather than the host.  Interpreted Python
# and vectorized numpy follow the host differently, so each stage is scaled by
# a kernel of its own kind of work: these stages spend their time in array
# code, the others in Python loops.
VECTORIZED_STAGES = frozenset({"convergence", "moment_duality", "asg_log"})
# time of each kernel at the host speed operation times are reported at
REFERENCE_S = {"interpreted": 0.018, "vectorized": 0.013}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="work per pass; toy is for the self-test")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="artifact directory (default: .bench_out)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's sources, never from elsewhere."""
    package = SRC / "lambda_asg"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: program sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import lambda_asg
    import workloads

    if Path(lambda_asg.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported lambda_asg from {lambda_asg.__file__}, not {package}")
    return workloads


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Time from starting a fresh process to its having imported the program
    and written the workload's configs: process start to the first
    experiment.  The probe prints the moment it is ready on the same
    monotonic clock."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--out", str(args.out),
    ]
    times = []
    for _ in range(SETUP_PROBES[args.scale]):
        start = time.perf_counter()
        probe = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(probe.stdout.split()[-1]) - start)
    return times


def kernel_kind(op) -> str:
    return "vectorized" if op.stage in VECTORIZED_STAGES else "interpreted"


def reference_kernel(kind: str) -> float:
    """Seconds taken by fixed work of one kind.  Interpreted: arithmetic,
    dict updates, a seeded random stream and a sort of tuples.  Vectorized:
    resampling, sorting and searching of 2e4-element arrays."""
    import numpy as np

    t0 = time.perf_counter()
    if kind == "interpreted":
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(40000):
            acc += (i * 0.5) % 3.0
            table[i & 1023] = acc
        stream = random.Random(3)
        pairs = []
        for i in range(8000):
            x = stream.random()
            pairs.append((x, i))
            table[i % 97] = table.get(i % 97, 0.0) + x
        pairs.sort()
    else:
        rng = np.random.default_rng(5)
        for _ in range(3):
            a = rng.random(20000)
            b = np.sort(a[rng.integers(0, 20000, 20000)])
            np.searchsorted(b, a)
            np.cumsum(np.exp(-a))
    return time.perf_counter() - t0


def run_pass(ops, tracer=None) -> tuple[float, dict, dict, list]:
    """Run every operation once, each between two runs of its reference
    kernel; returns wall time, per-operation time, the kernel times before
    and after each, failures."""
    op_s: dict[str, float] = {}
    ref_s: dict[str, list[float]] = {}
    failures = []
    start = time.perf_counter()
    for op in ops:
        before = reference_kernel(kernel_kind(op))
        t0 = time.perf_counter()
        try:
            with tracer.span(op.span) if tracer else nullcontext():
                failure = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failure = f"{type(exc).__name__}: {exc}"
        op_s[op.name] = time.perf_counter() - t0
        ref_s[op.name] = [before, reference_kernel(kernel_kind(op))]
        if failure:
            failures.append({"operation": op.name, "reason": failure})
    return time.perf_counter() - start, op_s, ref_s, failures


def artifact_digest(outdir: Path) -> str:
    """Hash of every artifact except the manifest, which holds wall times."""
    h = hashlib.sha256()
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def cli_bytes_written(ops) -> int:
    """Size of the CLI runs' artifacts; manifests vary with wall times."""
    return sum(
        f.stat().st_size for op in ops if op.span == "cli"
        for f in op.outdir.rglob("*") if f.is_file() and f.name != "manifest.json"
    )


# -- environment ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_libraries() -> list[dict]:
    """Each loaded OpenBLAS with its build string and the threads it uses."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    threads.restype = ctypes.c_int
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
        out.append(info)
    return out


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args: argparse.Namespace, program_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_libraries(),
        "program_threads": program_threads,
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
    }


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        import_program().build(args.workload, args.seed, args.scale,
                               args.out / args.workload)
        print(time.perf_counter())
        return 0
    workloads = import_program()
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = [] if args.trace else measure_setup(args)

    ops = workloads.build(args.workload, args.seed, args.scale, args.out / args.workload)
    for op in ops:
        shutil.rmtree(op.outdir, ignore_errors=True)
    env = environment(args, workloads.THREADS)
    tracer = tracing.Tracer() if args.trace else None

    attempted = failed = 0
    failures: list[dict] = []
    reference: dict[str, str] = {}
    untraced_walls, traced_walls = [], []
    op_samples: list[dict] = []
    ref_samples: list[dict] = []
    traced_op_samples: list[dict] = []
    traced_ref_samples: list[dict] = []
    layer_samples: list[dict] = []

    def one_pass(traced: bool) -> None:
        nonlocal attempted, failed
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, op_s, ref_s, fails = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            layer = tracer.summarize()
            layer["cli.bytes_written"] = cli_bytes_written(ops)
            layer_samples.append(layer)
        else:
            wall, op_s, ref_s, fails = run_pass(ops)
        attempted += len(ops)
        # the same seed must give the same artifacts on every pass
        for op in ops:
            digest = artifact_digest(op.outdir)
            if reference.setdefault(op.name, digest) != digest:
                fails.append({"operation": op.name,
                              "reason": "artifacts differ from the first pass"})
        failures.extend(fails)
        failed += len({f["operation"] for f in fails})
        (traced_walls if traced else untraced_walls).append(wall)
        (traced_op_samples if traced else op_samples).append(op_s)
        (traced_ref_samples if traced else ref_samples).append(ref_s)

    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        one_pass(traced=tracer is not None and passes % 2 == 1)
        passes += 1
        if time.perf_counter() >= deadline and (tracer is None or passes >= 2):
            break

    # Each operation is timed by its median pass, raw and scaled, so a rare
    # fast or slow pass moves it little.  A scaled pass is the operation's
    # time over the mean of the kernel runs around it.  The first (warm-up)
    # pass is left out when there are others.  A stage and the whole pass are
    # sums of operation times.
    def typical(samples: list[dict]) -> dict[str, float]:
        return {op.name: statistics.median(s[op.name] for s in samples) for op in ops}

    def scaled_times(samples: list[dict], refs: list[dict]) -> dict[str, float]:
        return {
            op.name: statistics.median([
                REFERENCE_S[kernel_kind(op)] * sample[op.name] / statistics.fmean(ref[op.name])
                for sample, ref in zip(samples, refs)
            ])
            for op in ops
        }

    timed = slice(1, None) if len(op_samples) > 1 else slice(None)
    untraced = typical(op_samples[timed])
    scaled = scaled_times(op_samples[timed], ref_samples[timed])
    # How much slower the host ran than the reference speed: the median over
    # every kernel run of its time over its REFERENCE_S.  Set-up is timed in
    # a few short probes, too few to pair each with a kernel run, and the
    # host's speed drifts over minutes, so set-up is scaled by this factor.
    host_factor = statistics.median(
        t / REFERENCE_S[kernel_kind(op)]
        for ref in ref_samples[timed] for op in ops for t in ref[op.name]
    )
    stage_ref_s = {f"{s}_ref_s": 0.0 for s in workloads.STAGES}
    for op in ops:
        stage_ref_s[f"{op.stage}_ref_s"] += scaled[op.name]
    if args.trace:
        values = {
            k: statistics.median([s[k] for s in layer_samples]) for k in layer_samples[0]
        }
        values.update(tracer.percentiles())
        values.update(stage_ref_s)
        values["trace.overhead_s"] = (
            sum(scaled_times(traced_op_samples, traced_ref_samples).values())
            - sum(scaled.values())
        )
        tracer.write_spans(args.out / args.workload / "spans.csv")
        section = "per_layer"
    else:
        values = {
            "wall_ref_s": sum(scaled.values()),
            "setup_s": statistics.median(setup_times) / host_factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    report = {
        "environment": env,
        "operations": [{"name": op.name, "stage": op.stage, "kernel": kernel_kind(op)}
                       for op in ops],
        "passes": {"untraced": len(untraced_walls),
                   "traced": len(traced_walls)},
        "wall_s": sum(untraced.values()),
        "reference_s": {
            kind: statistics.median(t for ref in ref_samples[timed] for op in ops
                                    if kernel_kind(op) == kind for t in ref[op.name])
            for kind in sorted({kernel_kind(op) for op in ops})
        },
        "wall_s_samples": untraced_walls,
        "traced_wall_s_samples": traced_walls,
        "setup_s_samples": setup_times,
        "host_factor": host_factor,
        "stage_ref_s": stage_ref_s,
        "operation_s_samples": op_samples,
        "reference_s_samples": ref_samples,
        "artifact_sha256": reference,
        "computed_counters": tracing.computed_metric_names() + ["cli.bytes_written"],
        "failures": failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
