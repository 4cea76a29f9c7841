"""Pipeline benchmark for llrseg.

    python3 perfbench/run.py --workload train-gen --seed 0 --seconds 30 --trace 0

Workloads (see NOTES.md): train-gen, train-disc, score-tiles. Set-up runs
in a child process, several times, and its median wall time is `setup_s`.
The measured phase runs in this process, one closed-loop caller of
`llrseg.cli.main`, repeating whole passes until --seconds is used up (at
least one). --trace 0 prints the end-to-end metrics; --trace 1 runs one
untraced and one traced pass and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it is a JSON
report: environment, per-pass figures, fingerprint and any failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a small shared machine a second thread makes every
# GEMM wait on whichever core a neighbour is using.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150
CLI_COMMANDS = ("synth", "train-inlier", "train-uem", "score", "eval")

E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-gen", "train-disc", "score-tiles"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up child
    p.add_argument("--phase", choices=("measure", "setup"), default="measure",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def bootstrap() -> None:
    """Pin BLAS threads, then import llrseg from the checkout's src/ and
    nowhere else."""
    if not (SRC / "llrseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no llrseg sources at {SRC}; run from a full checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import llrseg
    if Path(llrseg.__file__).resolve().parent != (SRC / "llrseg").resolve():
        sys.exit(f"perfbench: imported llrseg from {llrseg.__file__}, not {SRC}")


def blas_runtime() -> dict:
    """Vendor config and thread count reported by the loaded OpenBLAS."""
    import ctypes
    info: dict = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"library": Path(path).name, "config": get_config().decode(),
                        "threads": get_threads()}
    return info


def environment() -> dict:
    import numpy
    import scipy
    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": {k: build.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": blas_runtime(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up child
# ---------------------------------------------------------------------------
def setup_phase(args) -> int:
    """Run the workload's set-up `repeats` times in fresh directories, keep
    the first as the inputs, and print timings, checks and (traced) spans."""
    import llrseg
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    ops = workloads.Ops()
    repeats = 1 if args.trace else workload.setup_repeats
    tracer = Tracer(llrseg) if args.trace else None
    if tracer is not None:
        tracer.install()
    timings: list[dict] = []
    digests = []
    try:
        for rep in range(repeats):
            out = work / f"setup-{rep}"
            timings.append(workload.prepare(ops, args.seed, out))
            digests.append(workloads.tree_digest(out))
            if rep:
                ops.check(f"set-up repetition {rep} reproduces repetition 0",
                          digests[rep] == digests[0])
                shutil.rmtree(out)
    except workloads.StepFailed:
        pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    keys = timings[0].keys() if timings else ()
    print(json.dumps({
        "inputs": str(work / "setup-0"),
        "timings": {k: [t[k] for t in timings] for k in keys},
        "attempted": ops.attempted,
        "failures": ops.failures,
        # only synth is traced here: score-tiles' set-up training is not
        # the workload being measured
        "layers": tracer.aggregate(roots=("cli.synth",)) if tracer is not None else {},
        "partition_error": tracer.partition_error() if tracer is not None else 0.0,
    }))
    return 0


def run_setup_child(args, work: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", "setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# measured phase
# ---------------------------------------------------------------------------
def check_ledger(ops, entries: list[tuple[str, str]]) -> None:
    """Runs of one workload, seed and dataset at one source tree must write
    the same artifacts; the first fingerprint seen is kept in the run
    directory and every later one must match it."""
    path = RUN_DIR / "fingerprints.json"
    ledger = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for key, fingerprint in entries:
        expected = ledger.setdefault(key, fingerprint)
        ops.check(f"fingerprint of {key} matches earlier passes and runs",
                  expected == fingerprint, f"{fingerprint} vs {expected}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(path)


def host_reference_s() -> float:
    """Wall time of a fixed NumPy kernel made of the program's hot
    operations (erf, exp, a narrow GEMM). The benchmark reports it before
    and after the measured phase: on a shared host the speed one thread gets
    drifts, and this shows by how much during the run."""
    import numpy as np
    from scipy.special import erf
    x = np.random.default_rng(0).normal(0.0, 2.0, size=(256, 1152))
    w = np.random.default_rng(1).normal(0.0, 0.05, size=(1152, 64))
    start = time.perf_counter()
    for _ in range(12):
        erf(x)
        np.exp(-0.5 * x * x)
        x @ w
    return time.perf_counter() - start


def measure(args, work: Path) -> tuple[dict, dict, dict, "workloads.Ops"]:
    """Returns (report, declared metrics, every metric the run can name with
    its unit, checked operations)."""
    import gc
    import llrseg
    import workloads
    from spans import Tracer, merge

    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops()
    report: dict = {"workload": args.workload, "seed": args.seed}
    try:
        setup = run_setup_child(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        ops.check("set-up child completes", False, repr(exc))
        return report, {}, {}, ops
    ops.absorb(setup["attempted"], setup["failures"])
    if setup["failures"]:
        return report, {}, {}, ops
    inputs = Path(setup["inputs"])
    report["setup"] = setup["timings"]

    # traced: the first dataset untraced, then the same dataset traced
    datasets = [0, 0] if args.trace else range(workload.max_passes)
    passes = []
    report["host_reference_s"] = [host_reference_s()]
    tracer = None
    peak_rss_mb = 0.0
    start = time.perf_counter()
    try:
        for i, dataset in enumerate(datasets):
            if i:
                shutil.rmtree(work / f"pass-{i - 1}")
            if args.trace and i == 1:
                tracer = Tracer(llrseg)
                tracer.install()
            gc.collect()
            try:
                passes.append(workload.measure_pass(ops, inputs, work / f"pass-{i}", dataset))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if i == 0:
                # later passes add allocator fragmentation, not program memory
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if not args.trace and elapsed + elapsed / len(passes) > args.seconds:
                break
    except workloads.StepFailed:
        return report, {}, {}, ops
    report["host_reference_s"].append(host_reference_s())

    code = source_digest()[:16]
    entries = [(f"{args.workload} seed={args.seed} dataset={p.dataset} code={code}",
                p.fingerprint) for p in passes]
    check_ledger(ops, entries)
    report["fingerprint"] = hashlib.sha256(
        "".join(sorted(set(f"{k}={v}" for k, v in entries))).encode()).hexdigest()
    last = passes[-1]
    workloads.check_composition(ops, last)
    report["passes"] = [{"dataset": p.dataset, **p.times, "score_s": p.score_s,
                         "ap": p.report["ap"], "fpr95": p.report["fpr95"]}
                        for p in passes]
    report["input"] = {"frames_per_pass": len(last.frames),
                       "frame_pixels_per_pass": last.pixels}

    if args.trace:
        # the benchmark's own checks also call llrseg; count only the commands
        layers = merge(setup["layers"],
                       tracer.aggregate(roots=tuple(f"cli.{c}" for c in CLI_COMMANDS)))
        err = max(tracer.partition_error(), setup["partition_error"])
        ops.check("self times of each command's spans sum to its wall time",
                  err <= 1e-6, f"gap {err:.3e} s")
        metrics = layer_metrics(layers, passes[1].measured_s / passes[0].measured_s)
        metrics["metrics.ap_llr"] = last.report["ap"]
        metrics["metrics.fpr95_llr"] = last.report["fpr95"]
        metrics.update(workloads.quality_diagnostics(last))
        return report, metrics, {}, ops

    median = statistics.median
    metrics = {
        "setup_s": median(setup["timings"]["setup_s"]),
        "pipeline_s": median(p.measured_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    named = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    named["score_px_per_s"] = (sum(p.pixels for p in passes)
                               / sum(p.score_s for p in passes), "px/s")
    for key in ("train_inlier_s", "train_uem_s"):
        if key in last.times:
            named[key] = (median(p.times[key] for p in passes), "s")
        else:  # score-tiles trains on a short schedule in its set-up
            named[f"setup.{key}"] = (median(setup["timings"][key]), "s")
    named["eval_s"] = (median(p.times["eval_s"] for p in passes), "s")
    named["ap_llr"] = (statistics.fmean(p.report["ap"] for p in passes), "AP")
    named["fpr95_llr"] = (statistics.fmean(p.report["fpr95"] for p in passes), "ratio")
    return report, metrics, named, ops


LAYER_UNITS = {"gflop": "GFLOP", "gflops": "GFLOP/s", "bytes": "B",
               "bundle_bytes": "B", "residual_max": "L1", "heldout_miou": "mIoU"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "probe_s"):
        return "s"
    if last.startswith("ap_"):
        return "AP"
    if last.startswith("fpr95") or last.endswith(("ratio", "_frac")):
        return "ratio"
    return LAYER_UNITS.get(last, "count")


def layer_metrics(agg: dict, overhead_ratio: float) -> dict:
    def get(name: str, key: str = "s") -> float:
        return agg.get(name, {}).get(key, 0)

    m = {}
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = get(f"cli.{command}")
        m[f"cli.{command}.self_s"] = get(f"cli.{command}", "self_s")
    m["anomalymix.make_dataset.s"] = get("anomalymix.make_dataset")
    m["anomalymix.pixels"] = get("anomalymix.make_dataset", "pixels")
    m["datamodel.bundle_save.s"] = get("datamodel.bundle_save")
    m["datamodel.bundle_load.s"] = get("datamodel.bundle_load")
    m["datamodel.bundle_files"] = max(get("datamodel.bundle_save", "files_max"),
                                      get("datamodel.bundle_load", "files_max"))
    m["datamodel.bundle_bytes"] = max(get("datamodel.bundle_save", "bytes_max"),
                                      get("datamodel.bundle_load", "bytes_max"))
    m["datamodel.tensor_digest.calls"] = get("datamodel.tensor_digest", "calls")
    m["datamodel.tensor_digest.s"] = get("datamodel.tensor_digest")
    m["datamodel.map_io.s"] = get("datamodel.map_io")
    m["datamodel.map_io.bytes"] = get("datamodel.map_io", "bytes")
    fwd_s = get("neuralcore.mlp_forward")
    fwd_gflop = get("neuralcore.mlp_forward", "flop") / 1e9
    m["neuralcore.mlp_forward.s"] = fwd_s
    m["neuralcore.mlp_forward.calls"] = get("neuralcore.mlp_forward", "calls")
    m["neuralcore.mlp_forward.rows"] = get("neuralcore.mlp_forward", "rows")
    m["neuralcore.mlp_forward.gflop"] = fwd_gflop
    m["neuralcore.mlp_forward.gflops"] = fwd_gflop / fwd_s if fwd_s else 0.0
    m["neuralcore.mlp_backward.s"] = get("neuralcore.mlp_backward")
    m["neuralcore.mlp_backward.calls"] = get("neuralcore.mlp_backward", "calls")
    m["neuralcore.mlp_backward.gflop"] = get("neuralcore.mlp_backward", "flop") / 1e9
    entries = get("neuralcore.mlp_backward", "grad_entries")
    m["neuralcore.mlp_backward.subnormal_grad_frac"] = (
        get("neuralcore.mlp_backward", "grad_subnormal") / entries if entries else 0.0)
    m["neuralcore.optimizer_step.s"] = get("neuralcore.optimizer_step")
    m["neuralcore.optimizer_step.calls"] = get("neuralcore.optimizer_step", "calls")
    m["neuralcore.loss.s"] = get("neuralcore.loss")
    for op in ("density", "backward", "sinkhorn", "em_update"):
        m[f"gmm.{op}.s"] = get(f"gmm.{op}")
        m[f"gmm.{op}.calls"] = get(f"gmm.{op}", "calls")
    m["gmm.sinkhorn.residual_max"] = get("gmm.sinkhorn", "residual_max")
    m["inlier.train_inlier.self_s"] = get("inlier.train_inlier", "self_s")
    m["inlier.max_inlier_logit.s"] = get("inlier.max_inlier_logit")
    m["inlier.max_inlier_logit.calls"] = get("inlier.max_inlier_logit", "calls")
    m["inlier.from_bundle.calls"] = get("inlier.from_bundle", "calls")
    m["inlier.heldout_miou.s"] = get("inlier.heldout_miou")
    m["uem.train_uem.self_s"] = get("uem.train_uem", "self_s")
    m["uem.uem_forward.s"] = get("uem.uem_forward")
    m["uem.from_bundle.calls"] = get("uem.from_bundle", "calls")
    m["uem.verify_freeze.s"] = get("uem.verify_freeze")
    m["inference.score_image.s"] = get("inference.score_image")
    m["inference.score_image.calls"] = get("inference.score_image", "calls")
    visits = get("inference.score_image", "pixel_visits")
    m["inference.tiles"] = get("inference.score_image", "tiles")
    m["inference.pixel_visits"] = visits
    m["inference.useful_pixel_ratio"] = (
        get("inference.score_image", "pixels") / visits if visits else 0.0)
    m["metrics.evaluation_report.s"] = get("metrics.evaluation_report")
    m["trace.probe_s"] = get("trace.probe", "self_s")
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    sys.path.insert(0, str(HERE))
    if args.phase == "setup":
        return setup_phase(args)

    load_before = os.getloadavg()
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    try:
        report, metrics, named, ops = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["environment"] = environment()
    report["loadavg_before"] = load_before
    report["loadavg_after"] = os.getloadavg()
    fail_ratio = len(ops.failures) / max(1, ops.attempted)
    report["attempted"] = ops.attempted
    report["fail_ratio"] = fail_ratio
    report["failures"] = ops.failures
    unit = layer_unit if args.trace else E2E_UNITS.get
    named = named or {name: (value, unit(name)) for name, value in metrics.items()}
    named["fail_ratio"] = (fail_ratio, "ratio")
    print(f"workload {args.workload}, seed {args.seed}: {len(report.get('passes', []))} "
          f"passes; result metrics marked *")
    for name, (value, u) in named.items():
        mark = "*" if name in metrics else " "
        print(f"{mark} {name:38s} {value:>16.6g} {u}")
    print(json.dumps(report, default=str))
    # every early return from measure() follows a failed operation
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": max(1, ops.attempted),
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
