"""One workload run of the parwalk benchmark, in one process.

Started by ``run.py``, which times this process from its start; run alone
only to debug. The worker imports parwalk from ``src/`` of the checkout,
generates the workload's inputs from the seed, warms every code path up at
small size, and then calls ``parwalk.cli.main(["verify", ..., "--json"])``
in-process for each chain, one after another (a closed loop with one
client). Every report is checked here, independently of the program's own
``pass`` flag. The last line on stdout is a JSON result for ``run.py``.

With ``--trace 1`` the timed phase runs three times: untraced, with spans,
and with spans plus tracemalloc stage peaks (one pass).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import inputs
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Repeats of the warm-up chain list; cold first calls cost up to ~200 ms
# each against single milliseconds warm, and settle within a few calls.
WARMUP_ROUNDS = 2


def _import_program():
    sys.path.insert(0, str(SRC))
    import parwalk.blockenc
    import parwalk.cli
    import parwalk.parchain

    if not Path(parwalk.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"parwalk imported from {parwalk.__file__}, not from {SRC}")
    return {m.__name__: m for m in (parwalk.cli, parwalk.blockenc, parwalk.parchain)}


def _blas_threads():
    """OpenBLAS thread count of this process, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
    }


def check_report(rc: int, text: str, chain: dict) -> list:
    """Problems with one verify report; empty when it is correct."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        report = json.loads(text)
        if report["pass"] is not True:
            problems.append("report says pass: false")
        model = report["model"]
        if (model["n"], model["levels"]) != (chain["n"], chain["levels"]):
            problems.append(f"model n/levels {model['n']}/{model['levels']} "
                            f"!= requested {chain['n']}/{chain['levels']}")
        gamma = 4 * (1 << (model["levels"] - 1).bit_length())
        if report["gamma"] != gamma:
            problems.append(f"gamma {report['gamma']} != 4*2^ceil(log2 B) = {gamma}")
        anc = report["ancillas"]
        if anc["logical"] is None or not anc["logical"] <= anc["paper"]:
            problems.append(f"logical ancillas {anc['logical']} > paper {anc['paper']}")
        for name, dev in report["deviations"].items():
            if dev is not None and not dev["value"] <= dev["tol"]:
                problems.append(f"deviation {name} {dev['value']:.3e} > tol {dev['tol']:.1e}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def run_chain(main, chain: dict, call=None):
    """Run one chain through the CLI; returns (wall seconds, problems)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(main, chain["argv"]) if call else main(chain["argv"])
    except Exception:
        problems = ["exception: " + traceback.format_exc()]
    else:
        problems = None
    elapsed = time.perf_counter() - t0
    if problems is None:
        problems = check_report(rc, out.getvalue(), chain)
    if problems and err.getvalue().strip():
        problems.append("stderr: " + err.getvalue().strip())
    return elapsed, problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, chain: dict, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"argv": chain["argv"], "problems": problems})


def timed_phase(main, chains: list, seconds: float, tally: Tally, call=None) -> dict:
    """Verify the chains round-robin: one whole pass, then further chains
    while each is expected (from its previous time) to end within
    ``seconds``. Each chain's figure is the median of its calls, so a pass
    that is cut short does not skew the mix, and one slow call counts less
    once a chain has repeats."""
    times = [[] for _ in chains]
    calls = 0
    start = time.perf_counter()
    while True:
        i = calls % len(chains)
        elapsed = time.perf_counter() - start
        if calls >= len(chains) and elapsed + times[i][-1] > seconds:
            break
        chain_id = f"{calls // len(chains)}:{i}"
        dt, problems = run_chain(main, chains[i], functools.partial(call, chain_id) if call else None)
        times[i].append(dt)
        tally.add(chains[i], problems)
        calls += 1
    medians = [statistics.median(t) for t in times]
    return {"calls": calls, "elapsed": elapsed, "medians": medians,
            "chains_per_s": len(chains) / sum(medians)}


def traced_phase(main, modules: dict, chains: list, seconds: float, tally: Tally,
                 memory: bool) -> tuple:
    tracer = Tracer(memory=memory)
    saved = tracer.install(modules)
    if memory:
        tracemalloc.start()
    try:
        stats = timed_phase(main, chains, seconds, tally, call=tracer.run_chain)
    finally:
        if memory:
            tracemalloc.stop()
        Tracer.restore(saved)
    return stats, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True, help="directory for inputs")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up (a set-up time sample)")
    args = parser.parse_args(argv)

    modules = _import_program()
    main_fn = modules["parwalk.cli"].main
    doc = json.loads(inputs.generate(args.workload, args.seed, args.inputs).read_text())
    env = environment()
    tally = Tally()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        tally.add({"argv": ["environment"]},
                  [f"BLAS threads {env['blas_threads']} > nproc {env['nproc']}"])
    for _ in range(WARMUP_ROUNDS):
        for chain in doc["warmup"]:
            tally.add(chain, run_chain(main_fn, chain)[1])
    result = {"ready": time.monotonic(), "env": env, "seed": doc["seed"]}

    if not args.setup_only:
        if args.trace:
            share = args.seconds / 2
            result["untraced"] = timed_phase(main_fn, doc["chains"], share, tally)
            result["traced"], spans = traced_phase(
                main_fn, modules, doc["chains"], share, tally, memory=False)
            _, memory_spans = traced_phase(
                main_fn, modules, doc["chains"], 0, tally, memory=True)
            result["layers"] = layer_metrics(spans, memory_spans)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"timed": spans, "memory": memory_spans}))
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            result["timed"] = timed_phase(main_fn, doc["chains"], args.seconds, tally)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
