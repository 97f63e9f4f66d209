"""Per-layer tracing, installed from outside the package.

Each public function of a ``cqca`` module is replaced, in every module
namespace that holds it, by a wrapper that records a span: name, start,
end and parent.  The modules import each other with ``from .x import y``
or call ``module.y``, so the wrapper goes under every name a caller looks
the function up by.  A span's self time is its duration minus the time
covered by its child spans; summed over layers, self times equal the
duration of the root spans exactly.  Spans are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

import numpy as np

#: Layer -> public functions whose calls count as calls into that layer.
LAYERS = {
    "photonics": (
        "emit",
        "attach_eve_probe",
        "apply_party_action",
        "recombine_at_bs",
        "sample_detection",
        "helstrom_guess",
    ),
    "channel": ("transmit_onward", "return_leg"),
    "adversary": (
        "eve_extract_bit",
        "alice_single_path",
        "alice_double_path",
        "empirical_mutual_information",
    ),
    "parties": ("run_rounds", "run_protocol", "transcript_lines", "key_to_hex"),
    "metrics": ("compute_merit_report", "abort_decision", "expected_multi_rate"),
    "analysis": (
        "security_threshold",
        "key_rate",
        "holevo_bound",
        "theoretical_merits",
        "visibility_theory",
        "error_rate_theory",
        "error_from_visibility",
        "sweep_security_curve",
    ),
    "cli": ("main",),
}
#: The benchmark's own code inside a session, outside any layer.
ROOT_LAYER = "bench"
LAYER_NAMES = (*LAYERS, ROOT_LAYER)


#: Spans kept for writing out; later ones still count towards the totals.
SPAN_CAP = 1 << 20


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.layer_index = {layer: i for i, layer in enumerate(LAYER_NAMES)}
        self.calls = [0] * len(LAYER_NAMES)
        self.self_ns = [0] * len(LAYER_NAMES)
        self.root_ns = 0
        self.counters = {"packets": 0, "key_bits": 0, "protocol_rounds": 0, "protocols": 0}
        self.names = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.dropped = 0
        # Each open span is [child_ns, span_index].
        self._stack: list[list[int]] = []
        self._root = None
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, layer: str, fn, observe=None):
        name_id = len(self.span_names)
        self.span_names.append(name)
        layer_id = self.layer_index[layer]
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(starts)
            if index < SPAN_CAP:
                names.append(name_id)
                starts.append(0)
                ends.append(0)
                parents.append(stack[-1][1])
            else:
                index = -1
                self.dropped += 1
            frame = [0, index]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self_ns[layer_id] += duration - frame[0]
                calls[layer_id] += 1
                if index >= 0:
                    starts[index] = start
                    ends[index] = end
            if observe is not None:
                observe(result)
            return result

        return traced

    def run_root(self, fn):
        """Run ``fn`` under a root span; only calls made under one are traced."""
        if self._root is None:
            self._root = self._span("bench.session", ROOT_LAYER, lambda f: f())
        base = [0, -1]
        self._stack.append(base)
        try:
            return self._root(fn)
        finally:
            self._stack.pop()
            self.root_ns += base[0]

    def _observe_protocol(self, transcript) -> None:
        c = self.counters
        c["packets"] += len(transcript.packets)
        c["key_bits"] += len(transcript.key_bob)
        c["protocol_rounds"] += len(transcript.rounds)
        c["protocols"] += 1

    def install(self) -> None:
        """Wrap every listed function under every name it is bound to."""
        import cqca
        from cqca import adversary, analysis, channel, cli, metrics, parties, photonics

        modules = {
            "photonics": photonics,
            "channel": channel,
            "adversary": adversary,
            "parties": parties,
            "metrics": metrics,
            "analysis": analysis,
            "cli": cli,
        }
        namespaces = [cqca, *modules.values()]
        for layer, functions in LAYERS.items():
            for fname in functions:
                original = getattr(modules[layer], fname)
                observe = self._observe_protocol if fname == "run_protocol" else None
                wrapped = self._span(f"{layer}.{fname}", layer, original, observe)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def per_session(self, sessions: int) -> dict[str, float]:
        """Per-layer calls and self seconds, averaged over traced sessions."""
        out: dict[str, float] = {}
        for layer, i in self.layer_index.items():
            if layer != ROOT_LAYER:
                out[f"{layer}.calls"] = self.calls[i] / sessions
            out[f"{layer}.self_s"] = self.self_ns[i] / 1e9 / sessions
        c = self.counters
        out["parties.packets"] = c["packets"] / c["protocols"] if c["protocols"] else 0.0
        out["parties.sift_yield"] = (
            c["key_bits"] / c["protocol_rounds"] if c["protocol_rounds"] else 0.0
        )
        out["trace.wall_s"] = self.root_ns / 1e9 / sessions
        return out

    def self_times_add_up(self) -> bool:
        return sum(self.self_ns) == self.root_ns

    def write(self, path) -> None:
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.names, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            dropped=np.int64(self.dropped),
        )

