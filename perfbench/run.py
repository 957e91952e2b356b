"""Benchmark of `anisohit <pipeline>` runs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is loaded from ``src/``.

``--trace 0`` runs whole rounds of the workload's operations, one
``python -m anisohit.cli`` child process at a time, until ``--seconds`` have
passed, and reports per-round medians of wall and CPU time, the largest
max-RSS of any child, and the start-up time of one fresh interpreter that
imports the workload's modules.

``--trace 1`` runs the same rounds in this process through
``anisohit.cli.main``: one round plain, then one round with the per-layer
spans of ``spans.py``, repeated until ``--seconds`` have passed.  It reports
medians over the traced rounds, the traced-minus-plain wall time, and the
start-up figures of ``python -X importtime``.

An operation fails when its process exits with a nonzero code; every other
operation's CSV must pass the checks in ``checks.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SETUP_MODULES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

# One child at a time with one BLAS thread.  On the 2-vCPU reference machine
# two threads make small-ball 30 % faster, but its wall time then spreads
# about 10 % from run to run against 2.5 % with one thread.
THREADS = 1
THREAD_VARS = ("ANISOHIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def prepare(workload: str) -> Path:
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    for op in WORKLOADS[workload]:
        (work / op.name).mkdir(parents=True)
        (work / op.name / "run.cfg").write_text(op.config_text())
    return work


def op_argv(op, work: Path, seed: int) -> list[str]:
    argv = [op.pipeline, "--config", str(work / op.name / "run.cfg"), "--out", str(work / op.name)]
    return argv + ["--seed", str(seed)] if op.seeded else argv


def check(op, work: Path, problems: list[str]) -> None:
    from checks import check_output

    report = work / op.name / f"{op.pipeline}.csv"
    if not report.is_file():
        problems.append(f"{op.name}: exited 0 without writing {report.name}")
        return
    found = check_output(op.pipeline, op.config, report.read_text())
    problems.extend(f"{op.name}: {p}" for p in found)
    report.unlink()


def run_child(argv: list[str], env: dict, log: Path):
    """Wall seconds, CPU seconds, max-RSS MB and exit code of one child."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=sink, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def timed(workload: str, seed: int, seconds: float, work: Path, problems: list[str]):
    env = child_env()
    python = sys.executable
    setup_s, _, _, code = run_child(
        [python, "-c", "import " + ", ".join(SETUP_MODULES[workload])], env, work / "setup.log"
    )
    if code != 0:
        raise RuntimeError(f"importing the package failed; see {work / 'setup.log'}")
    walls, cpus, rss, attempted, failed = [], [], 0.0, 0, 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        round_wall = round_cpu = 0.0
        for op in WORKLOADS[workload]:
            wall, cpu, peak, code = run_child(
                [python, "-m", "anisohit.cli", *op_argv(op, work, seed)], env, work / op.name / "log"
            )
            attempted += 1
            round_wall += wall
            round_cpu += cpu
            rss = max(rss, peak)
            if code != 0:
                failed += 1
                print(f"failed: {op.name} exited {code}", file=sys.stderr)
            else:
                check(op, work, problems)
        walls.append(round_wall)
        cpus.append(round_cpu)
        print(f"round {len(walls)}: wall {round_wall:.3f} s, cpu {round_cpu:.3f} s", file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, attempted, failed, len(walls)


def _in_process_round(workload: str, seed: int, work: Path, problems: list[str]):
    from anisohit.cli import main as cli_main

    failed = 0
    start = time.perf_counter()
    for op in WORKLOADS[workload]:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli_main(op_argv(op, work, seed))
        if code != 0:
            failed += 1
            print(f"failed: {op.name} exited {code}", file=sys.stderr)
        else:
            check(op, work, problems)
    return time.perf_counter() - start, failed


def traced(workload: str, seed: int, seconds: float, work: Path, problems: list[str]):
    import importlib

    from spans import Tracer, import_times

    for module in ("cli", "errors", "gauges", "heat", "mc", "potential"):
        importlib.import_module(f"anisohit.{module}")
    figures: dict[str, list[float]] = {}
    attempted = failed = 0
    start = time.perf_counter()
    while not figures or time.perf_counter() - start < seconds:
        plain_s, plain_failed = _in_process_round(workload, seed, work, problems)
        tracer = Tracer()
        with tracer.patched():
            traced_s, traced_failed = _in_process_round(workload, seed, work, problems)
        attempted += 2 * len(WORKLOADS[workload])
        failed += plain_failed + traced_failed
        for name, value in layer_metrics(tracer, traced_s - plain_s).items():
            figures.setdefault(name, []).append(value)
    metrics = {name: (statistics.median(values), _unit(name)) for name, values in figures.items()}
    for name, value in import_times(sys.executable, SETUP_MODULES[workload], child_env()).items():
        metrics[name] = (value, "s")
    return metrics, attempted, failed, len(figures["trace.overhead_s"])


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def layer_metrics(tracer, overhead_s: float) -> dict:
    total, own, counts = tracer.total, tracer.self_time, tracer.counts
    return {
        "heat.covariance_matrix_s": total["heat.covariance_matrix"],
        "heat.cov_rules": counts["heat.cov_rules"],
        "heat.rules_per_s": _rate(counts["heat.cov_rules"], total["heat.covariance_matrix"]),
        "heat.metric_s": total["heat.metric"],
        "heat.metric_calls": counts["heat.metric_calls"],
        "heat.metric_pairs_per_s": _rate(counts["heat.metric_calls"], total["heat.metric"]),
        "heat.slope_s": total["heat.slope"],
        "heat.variance_direct_s": total["heat.variance_direct"],
        "mc.factor_s": own["mc.factor"],
        "mc.sampler_s": own["mc.sampler"],
        "mc.field_values": counts["mc.field_values"],
        "mc.field_values_per_s": _rate(counts["mc.field_values"], own["mc.sampler"]),
        "potential.distance_s": total["potential.distance"],
        "potential.distance_points": counts["potential.distance_points"],
        "potential.capacity_s": total["potential.capacity"],
        "potential.fw_iterations": counts["potential.fw_iterations"],
        "potential.hausdorff_s": total["potential.hausdorff"],
        "potential.cover_cells": counts["potential.cover_cells"],
        "gauges.growth_s": total["gauges.growth"],
        "gauges.monotonicity_s": total["gauges.monotonicity"],
        "cli.config_s": total["cli.config"],
        "cli.emit_csv_s": total["cli.emit_csv"],
        "trace.overhead_s": overhead_s,
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def check_variance_constants(workload: str, problems: list[str]) -> None:
    """The program's variance_direct against kappa t^(2H - b), per model used."""
    from anisohit.heat import HeatModel
    from checks import check_variance_constant

    models = {
        (float(cfg["hurst"]), float(cfg.get("alpha", 0.0)), int(cfg.get("space_dim", 1)))
        for cfg in (op.config for op in WORKLOADS[workload])
        if "hurst" in cfg
    }
    for hurst, alpha, space_dim in sorted(models):
        model = HeatModel(hurst=hurst, alpha=alpha, space_dim=space_dim)
        cfg = {"hurst": hurst, "alpha": alpha, "space_dim": space_dim}
        problems.extend(check_variance_constant(cfg, model.variance_direct))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anisohit" / "cli.py").is_file():
        print(f"error: no anisohit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    # numpy in this process (checks, traced rounds) gets the children's cap
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    work = prepare(args.workload)
    problems: list[str] = []
    run = traced if args.trace else timed
    metrics, attempted, failed, rounds = run(args.workload, args.seed, args.seconds, work, problems)
    check_variance_constants(args.workload, problems)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {rounds} round(s), {THREADS} thread(s)")
    print(f"operations: {attempted} attempted, {failed} failed; outputs correct: {not problems}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
