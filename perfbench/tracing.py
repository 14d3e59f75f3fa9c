"""Outside-in tracing of the ``parwalk verify`` pipeline.

The benchmark wraps the public functions ``parwalk.cli`` calls, replacing
the module attributes for the duration of a traced pass. Each wrapped call
records a span (id, parent id, chain id, name, start, end); spans stay in
memory and are written out once, at the end of the run. A memory pass also
records the ``tracemalloc`` peak of every top-level stage, i.e. of every
span whose parent is the ``cli.main`` span.

No file of the program is changed: the wrappers live here.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

ROOT = "cli.main"

# (module, attribute) pairs to wrap, by the span name their calls record;
# the span name plus "_s" names the self-time metric. The names parwalk.cli
# binds at import time are wrapped there; the two functions the pipeline
# also calls internally are wrapped at their home module too, so that
# internal calls are counted.
WRAPPED = {
    "models.build": [("parwalk.cli", "build_hypercube"), ("parwalk.cli", "build_cnf")],
    "cnf.load": [("parwalk.cli", "load_dimacs")],
    "parchain.decompose": [("parwalk.cli", "decompose_discriminant")],
    "parchain.acceptance": [("parwalk.cli", "acceptance_matrix"),
                            ("parwalk.parchain", "acceptance_matrix")],
    "parchain.transition": [("parwalk.cli", "transition_matrix")],
    "markov.balance": [("parwalk.cli", "check_detailed_balance")],
    "markov.stationary": [("parwalk.cli", "stationary_distribution")],
    "markov.gaps": [("parwalk.cli", "spectral_gaps")],
    "markov.other": [("parwalk.cli", "gibbs_distribution"), ("parwalk.cli", "discriminant"),
                     ("parwalk.cli", "lazy")],
    "blockenc.build": [("parwalk.cli", "build_ancilla_efficient_Q")],
    "blockenc.extract": [("parwalk.cli", "extract_block"),
                         ("parwalk.blockenc", "extract_block")],
    "blockenc.verify": [("parwalk.cli", "verify_encoding")],
    "spectra.embed": [("parwalk.cli", "eigenbasis_embedding")],
    "spectra.walk_spectrum": [("parwalk.cli", "walk_spectrum")],
    "spectra.gap_check": [("parwalk.cli", "phase_gap_check")],
    "szegedy.walk": [("parwalk.cli", "par_walk")],
}

# Per-chain call counts of these span names.
CALLS = {
    "blockenc.extract_calls": "blockenc.extract",
    "parchain.acceptance_calls": "parchain.acceptance",
    "parchain.transition_calls": "parchain.transition",
}

# Largest tracemalloc peak (MiB) of a top-level stage in each layer.
PEAK_LAYERS = ("parchain", "markov", "blockenc", "spectra", "szegedy")


def _block_size(args, _result):
    # extract_block applies the operator to N basis vectors of length op.dim:
    # the batch it allocates, computed from the shapes, not measured.
    be = args[0]
    return {"op_dim": be.op.dim, "batch_bytes": be.sys_dim * be.op.dim * 8}


def _encoding_size(_args, result):
    return {"anc_qubits": result.anc_qubits}


def _walk_size(_args, result):
    # bytes of the dense T, reflector and step W the walk holds, computed
    # from the array shapes
    return {
        "walk_dim": result.total_dim,
        "walk_bytes": result.t.nbytes + result.reflector.nbytes + result.w.nbytes,
    }


ATTRIBUTES = {
    "blockenc.extract": _block_size,
    "blockenc.build": _encoding_size,
    "szegedy.walk": _walk_size,
}


class Tracer:
    """Span recorder. ``memory`` adds a tracemalloc peak to each top-level
    stage; the caller starts and stops tracemalloc."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self._stack = []
        self._chain = None

    def span(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "parent": parent, "chain": self._chain, "name": name}
        self.spans.append(record)
        top_level = parent is not None and self.spans[parent]["name"] == ROOT
        if self.memory and top_level:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if self.memory and top_level:
            record["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        attrs = ATTRIBUTES.get(name)
        if attrs is not None:
            record.update(attrs(args, result))
        return result

    def run_chain(self, chain_id: str, fn, *args):
        """Record one chain as a ``cli.main`` root span."""
        self._chain = chain_id
        try:
            return self.span(ROOT, fn, *args)
        finally:
            self._chain = None

    def wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, modules: dict) -> list:
        """Replace the wrapped attributes; returns what ``restore`` needs."""
        saved = []
        for name, sites in WRAPPED.items():
            for mod_name, attr in sites:
                module = modules[mod_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrapper(name, original))
        return saved

    @staticmethod
    def restore(saved: list) -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list, memory_spans: list) -> dict:
    """Per-layer figures: self time, calls and sizes from the spans of the
    timed traced pass, stage peaks from those of the memory pass."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_time = defaultdict(float)
    calls = defaultdict(int)
    largest = defaultdict(int)
    anc_total = 0
    peaks = defaultdict(int)
    chains = set()
    for s in spans:
        name = s["name"]
        chains.add(s["chain"])
        self_time[name] += s["end"] - s["start"] - child_time[s["id"]]
        calls[name] += 1
        for key in ("op_dim", "batch_bytes", "walk_dim", "walk_bytes"):
            if key in s:
                largest[key] = max(largest[key], s[key])
        anc_total += s.get("anc_qubits", 0)
    for s in memory_spans:
        if "peak_bytes" in s:
            layer = s["name"].split(".")[0]
            peaks[layer] = max(peaks[layer], s["peak_bytes"])
    per_chain = 1.0 / max(1, len(chains))
    out = {"cli.self_s": (self_time[ROOT] * per_chain, "s")}
    for name in WRAPPED:
        out[f"{name}_s"] = (self_time[name] * per_chain, "s")
    for metric, name in CALLS.items():
        out[metric] = (calls[name] * per_chain, "count")
    out["blockenc.anc_qubits"] = (anc_total * per_chain, "count")
    out["linops.op_dim"] = (largest["op_dim"], "count")
    out["linops.batch_bytes"] = (largest["batch_bytes"], "B")
    out["szegedy.walk_dim"] = (largest["walk_dim"], "count")
    out["szegedy.walk_bytes"] = (largest["walk_bytes"], "B")
    for layer in PEAK_LAYERS:
        out[f"{layer}.peak_mib"] = (peaks[layer] / 2**20, "MiB")
    return out
