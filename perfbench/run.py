"""parwalk benchmark: ``parwalk verify`` throughput, latency, memory and set-up.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gate-grid --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh worker process (``worker.py``); this process
only starts workers and reports. With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. Human
readable lines come first; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every chain verified and passed the benchmark's checks.

Set-up time is sampled by the main worker and by ``SETUP_PROBES`` workers
that stop after the warm-up; each sample runs from just before the process
is started to the end of its warm-up, and the median is reported.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
# every run must finish within 180 s; stop a worker that would pass this
DEADLINE_S = 170.0
# p90 is reported only with at least ten chains beyond it
P90_MIN_SAMPLES = 100


class BenchError(Exception):
    pass


def launch(args, inputs_dir: Path, deadline: float, setup_only: bool) -> dict:
    """Run one worker to completion and return its result with ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", str(inputs_dir)]
    if setup_only:
        cmd.append("--setup-only")
    # time.monotonic reads the system-wide monotonic clock, which the worker
    # also stamps its end of warm-up with
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker passed the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def end_to_end(result: dict, setups: list) -> dict:
    # verify_s_p50 and verify_s_p90 are printed by summary() but not gated:
    # on gate-grid the median falls between two clusters of chain sizes and
    # moved by ~20% between runs of the same code.
    timed = result["timed"]
    return {
        "chains_per_s": {"value": timed["chains_per_s"], "unit": "1/s"},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(result: dict) -> dict:
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    traced = result["traced"]["chains_per_s"]
    untraced = result["untraced"]["chains_per_s"]
    metrics["trace.traced_chains_per_s"] = {"value": traced, "unit": "1/s"}
    metrics["trace.untraced_chains_per_s"] = {"value": untraced, "unit": "1/s"}
    metrics["trace.slowdown"] = {"value": untraced / traced, "unit": "ratio"}
    return metrics


def summary(args, result: dict, setups: list) -> list:
    env = result["env"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
        f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} blas_threads={env['blas_threads']}",
        "setup_s samples " + " ".join(f"{s:.3f}" for s in setups),
        f"fail_ratio {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']:.4f}",
    ]
    timed = result.get("timed") or result["untraced"]
    medians = timed["medians"]
    lines.append(f"verify calls {timed['calls']} over {len(medians)} chains "
                 f"in {timed['elapsed']:.2f} s")
    lines.append(f"verify_s_p50 {statistics.median(medians):.6f} s (n={len(medians)})")
    if len(medians) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(medians, n=10)[-1]
        lines.append(f"verify_s_p90 {p90:.6f} s (n={len(medians)})")
    if "spans_file" in result:
        lines.append(f"spans written to {result['spans_file']}")
    for item in result["problems"]:
        lines.append(f"FAILED {' '.join(item['argv'])}: {item['problems']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "parwalk" / "__init__.py").is_file():
        print(f"perfbench: no parwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        setups = [launch(args, tmp / f"probe{i}", deadline, setup_only=True)["setup_s"]
                  for i in range(SETUP_PROBES)]
        result = launch(args, tmp / "main", deadline, setup_only=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(result["setup_s"])

    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    for line in summary(args, result, setups):
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
