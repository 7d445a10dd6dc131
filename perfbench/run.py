"""ergmkit benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload paper-run --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Set-up (interpreter start, ``import ergmkit``, writing the
seeded input files) is timed in child processes started one after another;
every workload operation (``pipeline.run(load_config(...))``, what
``ergmkit run`` does) runs in this process, one at a time. With ``--trace 1``
each input is run untraced and then traced, and the per-layer metrics come
from the traced runs. The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans as tracing  # noqa: E402

PARTS = 5  # distinct input sets per run; operations cycle through them
SETUP_REPEATS = 5
MIN_OPS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# span name -> per-layer time metric; pipeline.run and pipeline.load_config
# enter only through pipeline.self_s, their time outside any child span
SPAN_METRICS = {
    name: f"{name}_s"
    for name in tracing.SPAN_NAMES + ["pipeline.self"]
    if name not in ("pipeline.run", "pipeline.load_config")
}
RATE_METRICS = {
    "sampler.proposals_per_s": "1/s",
    "sampler.ess_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# seed-determined like the counts, so reported from input set 0
SEEDED_METRICS = {
    "sampler.ess_min": "samples",
    "sampler.ess_ratio": "ratio",
    "fit.mcmle_gap_sd": "sd",
}


def import_pipeline():
    """ergmkit.pipeline from this checkout's src/, never an installed copy."""
    if not (SRC / "ergmkit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ergmkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ergmkit.pipeline as pipeline

    if Path(pipeline.__file__).resolve().parent != SRC / "ergmkit":
        raise SystemExit(f"benchmark: imported ergmkit from {pipeline.__file__}, not {SRC}")
    return pipeline


def set_up(workload: str, seed: int, dest: Path) -> None:
    """Child-process set-up: import the package and write every input part."""
    import_pipeline()
    for part in range(PARTS):
        inputs.generate(workload, seed, part, dest / f"part{part}")
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, work: Path) -> tuple[list[float], Path, bool]:
    """Time SETUP_REPEATS set-ups from process start to "ready"; return the
    times, the directory of the first one's inputs, and whether every
    set-up wrote byte-identical inputs."""
    times, digests = [], []
    for r in range(SETUP_REPEATS):
        dest = work / f"setup{r}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(dest),
               "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited with {code} after {line!r}")
        times.append(elapsed)
        digests.append(checks.tree_digest(dest))
    for r in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"setup{r}")
    return times, work / "setup0", len(set(digests)) == 1


def run_op(pipeline, config_path: Path, tracer=None, op_id: int = 0) -> tuple[float, str | None]:
    """One workload operation: load_config through run returning."""
    shutil.rmtree(config_path.parent / "out", ignore_errors=True)
    start = time.perf_counter()
    try:
        if tracer is None:
            pipeline.run(pipeline.load_config(config_path))
        else:
            with tracer.op(op_id):
                pipeline.run(pipeline.load_config(config_path))
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, f"raised {exc!r}"
    return time.perf_counter() - start, None


def layer_metrics(tracer, op_id: int, wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
    inclusive, self_time = tracing.layer_times(tracer.spans, op_id)
    values = {metric: inclusive[span] for span, metric in SPAN_METRICS.items()}
    counts = tracer.counts[op_id]
    values.update(counts)
    mh_s = self_time["sampler.sample"]
    values["sampler.proposals_per_s"] = counts["sampler.proposals"] / mh_s if mh_s else 0.0
    ess = [checks.chain_ess(s) for s in counts.chains]
    ess = [0.0 if math.isnan(v) else v for v in ess]
    retained = sum(len(s) for s in counts.chains)
    values["sampler.ess_min"] = min(ess, default=0.0)
    values["sampler.ess_ratio"] = sum(ess) / retained if retained else 0.0
    sample_s = inclusive["sampler.sample"]
    values["sampler.ess_per_s"] = sum(ess) / sample_s if sample_s else 0.0
    values["fit.mcmle_gap_sd"] = max(counts.mcmle_gaps, default=0.0)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall
    accounted = tracing.top_level_time(tracer.spans, op_id) + inclusive["pipeline.self"]
    problems = []
    if abs(accounted - wall) > 1e-3 * wall:
        problems.append(f"spans account for {accounted:.4f} s of {wall:.4f} s")
    return values, problems


def code_digest() -> str:
    return checks.tree_digest(ROOT, ("src/ergmkit/*.py", "perfbench/*.py"))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def check_against_earlier_runs(workload: str, seed: int, records: list[dict]) -> list[str]:
    """Compare output digests and exact counts of each input part with every
    earlier operation on it: in this run, and in earlier runs of the same
    code, workload and seed in this checkout. Record this run's."""
    store = WORK / "determinism" / f"{workload}-{seed}-{code_digest()[:16]}.json"
    earlier = json.loads(store.read_text()) if store.is_file() else {}
    problems = []
    for rec in records:
        for key in ("digest", "counts"):
            if rec.get(key) is None:
                continue
            first = earlier.setdefault(key, {}).setdefault(str(rec["part"]), rec[key])
            if first != rec[key]:
                problems.append(f"{key} of input part {rec['part']} differs from an earlier operation")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(earlier))
    return problems


def run_workload(pipeline, args, config_paths: list[Path]) -> tuple[list[dict], list[str], list]:
    spec = inputs.WORKLOADS[args.workload]
    family = spec["config"]["family"]
    tracer = tracing.Tracer() if args.trace else None
    records, problems = [], []
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_OPS and elapsed + statistics.median(durations) > args.seconds:
            break
        unit_start = time.perf_counter()
        part = len(durations) % PARTS
        config = config_paths[part]
        rec = {"part": part}
        rec["wall_s"], error = run_op(pipeline, config)
        if tracer is not None and error is None:
            tracer.install()
            try:
                traced_wall, error = run_op(pipeline, config, tracer, len(durations))
            finally:
                tracer.uninstall()
            if error is None:
                rec["layers"], span_problems = layer_metrics(
                    tracer, len(durations), traced_wall, rec["wall_s"]
                )
                rec["counts"] = {k: rec["layers"][k] for k in tracing.COUNT_NAMES}
                problems += span_problems
        rec["problems"] = [error] if error else checks.check_outputs(
            spec["check"], config.parent, family
        )
        if not rec["problems"]:
            rec["digest"] = checks.tree_digest(config.parent / "out")
        records.append(rec)
        durations.append(time.perf_counter() - unit_start)
    problems += check_against_earlier_runs(args.workload, args.seed, records)
    return records, problems, tracer.spans if tracer is not None else []


def summarize(args, records, setup_times) -> dict:
    if not args.trace:
        walls = [r["wall_s"] for r in records]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    traced = [r["layers"] for r in records if "layers" in r]
    if not traced:
        raise RuntimeError("no traced operation succeeded")
    first = traced[0]  # input part 0: exact counts and ESS repeat run to run
    units = {m: "s" for m in SPAN_METRICS.values()}
    units.update({c: "count" for c in tracing.COUNT_NAMES}, **RATE_METRICS, **SEEDED_METRICS)
    metrics = {}
    for name, unit in units.items():
        exact = name in tracing.COUNT_NAMES or name in SEEDED_METRICS
        value = first[name] if exact else statistics.median(t[name] for t in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    p = math.floor(100 * (1 - 10 / n))
    return p if p >= 50 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into is not None:
        set_up(args.workload, args.seed, args.setup_into)
        return 0

    pipeline = import_pipeline()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_times, input_dir, same_inputs = measure_setup(args.workload, args.seed, work)
    config_paths = [input_dir / f"part{k}" / "config.json" for k in range(PARTS)]
    records, problems, spans = run_workload(pipeline, args, config_paths)
    if not same_inputs:
        problems.append("two set-ups with the same seed wrote different input files")
    failed = sum(1 for r in records if r["problems"])
    metrics = summarize(args, records, setup_times)

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
        "code_digest": code_digest(),
    }
    spec = inputs.WORKLOADS[args.workload]
    print(f"workload {args.workload}: n={spec['n']} mean degree {spec['degree']}, "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for rec in records:
        if rec["problems"]:
            print(f"FAILED op on part {rec['part']}: {'; '.join(rec['problems'])}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    walls = [r["wall_s"] for r in records]
    tail = tail_percentile(len(walls))
    tail_text = (f"p{tail} {np.percentile(walls, tail):.4f} s" if tail is not None
                 else "no percentile above the median has 10 samples beyond it")
    print(f"wall_s median {statistics.median(walls):.4f} s over {len(walls)} operations; {tail_text}")
    print(f"fail_rate {failed / len(records):.4f} ratio ({failed} of {len(records)} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        wall = metrics["trace.wall_s"]["value"]
        for name in ("sampler.sample_s", "sampler.chain_init_s", "netstats.betweenness_s",
                     "logistic.fit_s", "imputation.missforest_s", "fit.mcmle_s"):
            print(f"share of traced wall_s: {name} {metrics[name]['value'] / wall:.3f}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s": setup_times, "operations": records,
              "problems": problems, "metrics": metrics}
    if spans:
        result["spans"] = [vars(s) for s in spans]
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1, default=float))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
