"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` wraps public functions of each `postman` layer wherever
their callers look them up: in the defining module, in every `postman`
module that imported the same object by name, and on the class for
methods. Each call becomes a span (name, start, end, parent). A layer's
self time is its spans' durations minus the time their child spans cover.
Spans and counts are summed per phase (one set-up repetition or one timed
round); `metrics` reports, per figure, the median set-up repetition plus
the median timed round, so counts repeat exactly for a fixed seed.

A target that no longer exists is skipped, and every metric built on it is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from statistics import median

# (layer, target) pairs: target is "<module>.<function>" or "<module>.<Class>.<method>".
TARGETS = [
    ("graphs", "graphs.shortest_paths"),
    ("graphs", "graphs.reconstruct_path"),
    ("graphs", "graphs.is_connected"),
    ("graphs", "graphs.odd_nodes"),
    ("graphs", "graphs.graph_features"),
    ("graphs", "graphs.random_graph"),
    ("graphs", "graphs.read_edge_list"),
    ("graphs", "graphs.write_edge_list"),
    ("graphs", "graphs.Graph.with_weight"),
    ("exact", "exact.m_min"),
    ("exact", "exact.odd_pair_distances"),
    ("exact", "exact.minimum_matching"),
    ("exact", "exact.solve"),
    ("qubo", "qubo.build_qubo"),
    ("qubo", "qubo.to_ising"),
    ("qubo", "qubo.QuboModel.energy"),
    ("qubo", "qubo.IsingModel.energy"),
    ("samplers", "samplers.simulated_annealing"),
    ("samplers", "samplers.tabu_search"),
    ("samplers", "samplers.spectral_gap"),
    ("samplers", "samplers.spectral_gap_large"),
    ("samplers", "samplers.ground_state"),
    ("samplers", "samplers.brute_force"),
    ("samplers", "samplers.SampleSet.from_configs"),
    ("samplers", "samplers.SampleSet.merge"),
    ("chimera", "chimera.chimera_graph"),
    ("chimera", "chimera.clique_embedding"),
    ("chimera", "chimera.validate_embedding"),
    ("chimera", "chimera.embed_ising"),
    ("chimera", "chimera.spin_reversal"),
    ("chimera", "chimera.ungauge_config"),
    ("chimera", "chimera.decode_chains"),
    ("metrics", "metrics.jf_sweep"),
    ("metrics", "metrics.sample_embedded"),
    ("metrics", "metrics.decode_sampleset"),
    ("metrics", "metrics.p_gs"),
    ("defects", "defects.defect_map"),
    ("defects", "defects.mmin_vs_cmax"),
    ("cli", "cli.main"),
]

# Inclusive-time metrics: metric -> targets whose outermost spans it sums.
SPAN_METRICS = {
    "graphs.shortest_paths_s": ["graphs.shortest_paths"],
    "graphs.random_graph_s": ["graphs.random_graph"],
    "exact.odd_pair_distances_s": ["exact.odd_pair_distances"],
    "exact.minimum_matching_s": ["exact.minimum_matching"],
    "qubo.build_qubo_s": ["qubo.build_qubo"],
    "qubo.to_ising_s": ["qubo.to_ising"],
    "qubo.energy_s": ["qubo.QuboModel.energy", "qubo.IsingModel.energy"],
    "samplers.simulated_annealing_s": ["samplers.simulated_annealing"],
    "samplers.from_configs_s": ["samplers.SampleSet.from_configs"],
    "samplers.merge_s": ["samplers.SampleSet.merge"],
    "samplers.spectral_gap_large_s": ["samplers.spectral_gap_large"],
    "samplers.tabu_search_s": ["samplers.tabu_search"],
    "chimera.embed_ising_s": ["chimera.embed_ising"],
    "chimera.spin_reversal_s": ["chimera.spin_reversal"],
    "chimera.decode_chains_s": ["chimera.decode_chains"],
    "metrics.sample_embedded_s": ["metrics.sample_embedded"],
    "metrics.decode_sampleset_s": ["metrics.decode_sampleset"],
    "defects.defect_map_s": ["defects.defect_map"],
    "defects.mmin_vs_cmax_s": ["defects.mmin_vs_cmax"],
}

# Count metrics: metric -> targets whose calls feed it (see Tracer._count).
COUNT_METRICS = {
    "graphs.dijkstra_sources": ["graphs.shortest_paths"],
    "exact.m_min_calls": ["exact.m_min"],
    "qubo.energy_evals": ["qubo.QuboModel.energy", "qubo.IsingModel.energy"],
    "chimera.broken_reads": ["chimera.decode_chains"],
}

SA = "samplers.simulated_annealing"
SA_UNIFORM_BLOCK = 1 << 24  # uniforms per pregenerated block in simulated_annealing
LAYERS = sorted({layer for layer, _ in TARGETS})

UNITS = {name: "s" for name in SPAN_METRICS}
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS.update({name: "count" for name in COUNT_METRICS})
UNITS["samplers.sa_spin_updates_per_s"] = "1/s"
UNITS["samplers.sa_uniform_block_mb"] = "MB-computed"


class _Phase:
    """Sums for one set-up repetition or one timed round."""

    def __init__(self):
        self.self_s = defaultdict(float)   # layer -> self time
        self.span_s = defaultdict(float)   # target -> outermost inclusive time
        self.counts = defaultdict(int)     # metric -> count
        self.sa_updates = 0
        self.sa_block_bytes = 0


class Tracer:
    def __init__(self, capture=()):
        self.capture = set(capture)
        self.captures: dict[str, list] = defaultdict(list)
        self.installed: set[str] = set()
        self.setup_phases: list[_Phase] = []
        self.round_phases: list[_Phase] = []
        self.spans: list[tuple] = []       # spans of the first timed round
        self._phase = _Phase()
        self._kind = "between"
        self._stack: list[list] = []       # [target, start, child_time, span id]
        self._next_id = 0
        self._undo: list[tuple] = []
        self._sa_sig = None
        self._sources_pos = None

    # --- phases ----------------------------------------------------------

    def begin(self, kind: str) -> None:
        self._phase = _Phase()
        self._kind = kind

    def end(self) -> None:
        (self.setup_phases if self._kind == "setup" else self.round_phases).append(self._phase)
        self._phase = _Phase()
        self._kind = "between"

    def _keeping(self) -> bool:
        return self._kind == "round" and not self.round_phases

    # --- installing wrappers ----------------------------------------------

    def install(self) -> None:
        for layer, target in TARGETS:
            modname, *path = target.split(".")
            try:
                owner = importlib.import_module(f"postman.{modname}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                continue
            name = path[-1]
            if isinstance(owner, type):
                raw = owner.__dict__.get(name)
                if raw is None:
                    continue
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(layer, target, fn)
                setattr(owner, name, staticmethod(wrapper) if is_static else wrapper)
                self._undo.append((owner, name, raw))
            else:
                fn = getattr(owner, name, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(layer, target, fn)
                for module in [m for k, m in sys.modules.items() if k == "postman" or k.startswith("postman.")]:
                    if module.__dict__.get(name) is fn:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, fn))
            self.installed.add(target)
            if target == SA:
                sig = inspect.signature(fn)
                if {"model", "reads", "schedule"} <= set(sig.parameters):
                    self._sa_sig = sig
            if target == "graphs.shortest_paths":
                params = list(inspect.signature(fn).parameters)
                self._sources_pos = params.index("sources") if "sources" in params else None

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, layer: str, target: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(layer, target, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target)
        traced.__doc__ = fn.__doc__
        return traced

    def _call(self, layer, target, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        frame = [target, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            phase = self._phase
            phase.self_s[layer] += duration - frame[2]
            if not any(f[0] == target for f in self._stack):
                phase.span_s[target] += duration
            if self._stack:
                self._stack[-1][2] += duration
            if self._keeping():
                parent = self._stack[-1][3] if self._stack else None
                self.spans.append((span_id, parent, target, frame[1], end))
        self._count(target, args, kwargs, result)
        if target in self.capture and self._kind == "round":
            self.captures[target].append((args, kwargs, result))
        return result

    # --- counts ------------------------------------------------------------

    def _count(self, target, args, kwargs, result) -> None:
        counts = self._phase.counts
        if target in ("qubo.QuboModel.energy", "qubo.IsingModel.energy"):
            counts["qubo.energy_evals"] += 1
        elif target == "exact.m_min":
            counts["exact.m_min_calls"] += 1
        elif target == "graphs.shortest_paths" and self._sources_pos is not None:
            pos = self._sources_pos
            sources = args[pos] if len(args) > pos else kwargs.get("sources", ())
            counts["graphs.dijkstra_sources"] += len(sources)
        elif target == "chimera.decode_chains":
            if isinstance(result, tuple) and len(result) == 2 and result[1]:
                counts["chimera.broken_reads"] += 1
        elif target == SA and self._sa_sig is not None:
            bound = self._sa_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
            schedule = call.get("schedule")
            sweeps = getattr(schedule, "n_sweeps", 1000) if schedule is not None else 1000
            reads, n = call.get("reads", 1), call["model"].n
            chunk = call.get("chunk") or max(1, min(reads, SA_UNIFORM_BLOCK // max(1, sweeps * n)))
            self._phase.sa_updates += reads * sweeps * n
            self._phase.sa_block_bytes = max(self._phase.sa_block_bytes, chunk * sweeps * n * 8)

    # --- results -------------------------------------------------------------

    def _typical(self, pick) -> float:
        """Median set-up repetition plus median timed round of one figure."""
        total = 0.0
        for phases in (self.setup_phases, self.round_phases):
            if phases:
                total += median(pick(p) for p in phases)
        return total

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """(metric -> value, absent metric names)."""
        out: dict[str, float] = {}
        absent: list[str] = []

        def have(targets):
            return any(t in self.installed for t in targets)

        for layer in LAYERS:
            name = f"{layer}.self_s"
            if have([t for lay, t in TARGETS if lay == layer]):
                out[name] = self._typical(lambda p: p.self_s[layer])
            else:
                absent.append(name)
        for name, targets in SPAN_METRICS.items():
            if have(targets):
                out[name] = self._typical(lambda p: sum(p.span_s[t] for t in targets))
            else:
                absent.append(name)
        for name, targets in COUNT_METRICS.items():
            if have(targets) and not (name == "graphs.dijkstra_sources" and self._sources_pos is None):
                out[name] = int(round(self._typical(lambda p: p.counts[name])))
            else:
                absent.append(name)
        if self._sa_sig is not None:
            sa_time = self._typical(lambda p: p.span_s[SA])
            updates = self._typical(lambda p: p.sa_updates)
            out["samplers.sa_spin_updates_per_s"] = updates / sa_time if sa_time else 0.0
            blocks = [p.sa_block_bytes for p in self.setup_phases + self.round_phases]
            out["samplers.sa_uniform_block_mb"] = max(blocks, default=0) / 2**20
        else:
            absent += ["samplers.sa_spin_updates_per_s", "samplers.sa_uniform_block_mb"]
        return out, sorted(absent)
