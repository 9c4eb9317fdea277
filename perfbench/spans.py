"""Span recorder, self-time arithmetic and the traced run's per-layer metrics.

A traced run wraps the public functions of each ``nltslab`` module by
replacing module attributes, records one span per wrapped call, and restores
every attribute afterwards.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the part of that interval its child
spans cover.  Summed over a tree of spans, self times add up to the root's
duration, so the per-layer self times account for the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

#: Layers are the package modules; landscape and pspin are split into the
#: groups their metrics are reported under.
MODULES = ("cli", "ksat", "landscape", "hamiltonian", "pspin", "theory")

LANDSCAPE_GROUPS = {
    "enumerate_sat": "landscape.enumerate",
    "enumerate_sat_eps": "landscape.enumerate",
    "members_to_csv": "landscape.export",
    "histogram_to_csv": "landscape.export",
    "summary_to_json": "landscape.export",
    "overlap_histogram": "landscape.pairs",
    "detect_ogp": "landscape.pairs",
    "cluster": "landscape.cluster",
    "cluster_stats": "landscape.cluster",
}
PSPIN_SCAN = {"ground_state_bruteforce", "near_ground_set"}

#: Called ~10^5 times per theory scan, only from inside ``theory``: a span
#: each would cost more than the work and move no time between layers.
UNWRAPPED = {"theory.binary_entropy", "theory.rate_exponent"}

GROUPS = (
    "cli", "ksat", "landscape.enumerate", "landscape.export", "landscape.pairs",
    "landscape.cluster", "pspin.scan", "pspin.build", "hamiltonian", "theory",
)
HAMILTONIAN_ENTRY = {
    "hamiltonian.ground_state": "hamiltonian.ground_state_s",
    "hamiltonian.energy": "hamiltonian.energy_s",
    "hamiltonian.measurement_distribution": "hamiltonian.measure_s",
    "hamiltonian.save_state": "hamiltonian.dump_s",
}
VECTOR_PASSES = {"apply_q_gamma", "project_out_cat", "violation_counts"}

_ALL = "wall_s on enumerate, geometry and spin-quantum"
_ENUM = "wall_s on enumerate; unchanged on spin-quantum, small on geometry"
_PAIRS = "wall_s and peak_rss_mb on geometry; unchanged on enumerate and spin-quantum"
_GEOM = "wall_s on geometry; unchanged on enumerate and spin-quantum"
_SPIN = "wall_s on spin-quantum; unchanged on enumerate and geometry"
#: (name, unit, better, which end-to-end metric it should move, and where)
LAYER_METRICS = (
    ("cli.self_s", "s", "lower", _ALL),
    ("cli.bytes_written", "bytes", "lower", _ALL),
    ("ksat.self_s", "s", "lower", _ALL + " (small)"),
    ("landscape.enumerate.self_s", "s", "lower", _ENUM),
    ("landscape.enumerate.calls", "count", "lower", _ENUM),
    ("landscape.enumerate.assignments", "count", "lower", _ENUM),
    ("landscape.enumerate.assignments_per_s", "1/s", "higher", _ENUM),
    ("landscape.enumerate.yield", "ratio", "higher", _ENUM),
    ("landscape.export.self_s", "s", "lower", "wall_s on enumerate; unchanged on geometry and spin-quantum"),
    ("landscape.export.rows", "count", "lower", "wall_s on enumerate; unchanged on geometry and spin-quantum"),
    ("landscape.export.rows_per_s", "1/s", "higher", "wall_s on enumerate; unchanged on geometry and spin-quantum"),
    ("landscape.pairs.self_s", "s", "lower", _PAIRS),
    ("landscape.pairs.histogram_calls", "count", "lower", _PAIRS),
    ("landscape.pairs.pairs", "count", "lower", _PAIRS),
    ("landscape.pairs.pairs_per_s", "1/s", "higher", _PAIRS),
    ("landscape.pairs.histogram_calls_per_set", "count", "lower", _PAIRS),
    ("landscape.cluster.self_s", "s", "lower", _GEOM),
    ("landscape.cluster.close_pairs", "count", "lower", _GEOM),
    ("pspin.scan.self_s", "s", "lower", _SPIN),
    ("pspin.scan.configs", "count", "lower", _SPIN),
    ("pspin.scan.configs_per_s", "1/s", "higher", _SPIN),
    ("pspin.scan.cube_passes", "count", "lower", _SPIN),
    ("pspin.build.self_s", "s", "lower", _SPIN),
    ("hamiltonian.self_s", "s", "lower", _SPIN),
    ("hamiltonian.ground_state_s", "s", "lower", _SPIN),
    ("hamiltonian.energy_s", "s", "lower", _SPIN),
    ("hamiltonian.measure_s", "s", "lower", _SPIN),
    ("hamiltonian.dump_s", "s", "lower", _SPIN),
    ("hamiltonian.vector_passes", "count", "lower", _SPIN),
    ("hamiltonian.amplitudes_per_s", "1/s", "higher", _SPIN),
    ("theory.self_s", "s", "lower", _SPIN + " (small)"),
    ("theory.windows", "count", "lower", _SPIN + " (small)"),
    ("trace.wall_s", "s", "lower", "none: wall_s of the traced pass"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
    ("trace.unattributed_s", "s", "lower", "none: traced wall_s not covered by any layer span"),
)


class Span:
    __slots__ = ("name", "group", "start", "end", "parent", "instance")

    def __init__(self, name, group, start, parent, instance):
        self.name = name
        self.group = group
        self.start = start
        self.end = None
        self.parent = parent
        self.instance = instance

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "group": self.group, "start": self.start,
                "end": self.end, "parent": self.parent, "instance": self.instance}


class SpanRecorder:
    """Keeps spans in memory; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.instance: str | None = None

    def open(self, name: str, group: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, group, self.clock(), parent, self.instance))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def active(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self.stack)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append((s.end - s.start) - covered([c for c in clipped if c[1] > c[0]]))
    return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Installs span-recording wrappers over the package's public functions.

    Use as a context manager; every replaced attribute is put back on exit,
    including aliases that other modules imported with ``from . import``.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.counts: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._pair_sets: dict[int, object] = {}
        self._configs: dict[str, list[int]] = {}

    # -- counters ------------------------------------------------------------
    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _hooks(self) -> dict:
        def enumerate_sat(args, kwargs, result):
            self.add("landscape.enumerate.calls")
            self.add("landscape.enumerate.assignments", 1 << _arg(args, kwargs, 0, "f").n)
            self.add("landscape.enumerate.members", len(result))

        def members_to_csv(args, kwargs, result):
            self.add("landscape.export.rows", len(_arg(args, kwargs, 0, "A")))

        def histogram_to_csv(args, kwargs, result):
            self.add("landscape.export.rows", len(_arg(args, kwargs, 0, "h").counts))

        def overlap_histogram(args, kwargs, result):
            A = _arg(args, kwargs, 0, "A")
            self.add("landscape.pairs.histogram_calls")
            self.add("landscape.pairs.pairs", math.comb(len(A), 2))
            self._pair_sets[id(A.members)] = A.members  # holding it keeps the id unique

        def cluster(args, kwargs, result):
            self.add("landscape.cluster.close_pairs",
                     sum(math.comb(int(c.size), 2) for c in result.clusters))

        def energy(args, kwargs, result):
            self.add("hamiltonian.energy_calls")

        def vector_pass(args, kwargs, result):
            first = args[0] if args else next(iter(kwargs.values()))
            layout = getattr(first, "layout", first)
            self.add("hamiltonian.amplitudes", layout.dim)
            if self.recorder.active("hamiltonian.energy"):
                self.add("hamiltonian.energy_vector_passes")

        def first_feasible_window(args, kwargs, result):
            self.add("theory.windows")

        hooks = {
            "landscape.enumerate_sat": enumerate_sat,
            "landscape.members_to_csv": members_to_csv,
            "landscape.histogram_to_csv": histogram_to_csv,
            "landscape.overlap_histogram": overlap_histogram,
            "landscape.cluster": cluster,
            "hamiltonian.energy": energy,
            "theory.first_feasible_window": first_feasible_window,
        }
        for name in VECTOR_PASSES:
            hooks[f"hamiltonian.{name}"] = vector_pass
        return hooks

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn, name: str, group: str, hook):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = rec.open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count_configs(self, fn):
        """Counter only (no span): configurations the p-spin energy kernel evaluates."""

        @functools.wraps(fn)
        def wrapper(g, J, zs):
            per = self._configs.setdefault(self.recorder.instance or "", [0, g.n])
            per[0] += int(zs.size)
            return fn(g, J, zs)

        return wrapper

    def _set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _targets(self):
        """(module, attribute, qualified name, group) for every wrapped function."""
        out = []
        for modname in MODULES:
            mod = importlib.import_module(f"nltslab.{modname}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qual = f"{modname}.{attr}"
                if qual in UNWRAPPED:
                    continue
                if modname == "landscape":
                    if attr not in LANDSCAPE_GROUPS:
                        continue
                    group = LANDSCAPE_GROUPS[attr]
                elif modname == "pspin":
                    group = "pspin.scan" if attr in PSPIN_SCAN else "pspin.build"
                else:
                    group = modname
                out.append((mod, attr, qual, group))
        return out

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        replaced = {}
        try:
            for mod, attr, qual, group in self._targets():
                original = getattr(mod, attr)
                wrapper = self._wrap(original, qual, group, hooks.get(qual))
                replaced[id(original)] = wrapper
                self._set(mod, attr, wrapper)
            # names bound elsewhere by ``from .module import function``
            for modname in MODULES:
                mod = importlib.import_module(f"nltslab.{modname}")
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        self._set(mod, attr, replaced[id(obj)])
            ksat = importlib.import_module("nltslab.ksat")
            prop = ksat.Formula.__dict__["clause_arrays"]
            self._set(prop, "func", self._wrap(prop.func, "ksat.Formula.clause_arrays", "ksat", None))
            pspin = importlib.import_module("nltslab.pspin")
            if hasattr(pspin, "_energies_packed"):
                self._set(pspin, "_energies_packed", self._count_configs(pspin._energies_packed))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- metrics -------------------------------------------------------------
    def metrics(self, wall_s: float, untraced_wall_s: float, bytes_written: int) -> dict:
        spans = self.recorder.spans
        selfs = self_times(spans)
        group_self = dict.fromkeys(GROUPS, 0.0)
        for s, t in zip(spans, selfs):
            group_self[s.group] = group_self.get(s.group, 0.0) + t
        inclusive = dict.fromkeys(HAMILTONIAN_ENTRY.values(), 0.0)
        for s in spans:
            if s.name in HAMILTONIAN_ENTRY:
                inclusive[HAMILTONIAN_ENTRY[s.name]] += s.end - s.start

        c = self.counts.get

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        assignments = c("landscape.enumerate.assignments", 0)
        rows = c("landscape.export.rows", 0)
        pairs = c("landscape.pairs.pairs", 0)
        hist_calls = c("landscape.pairs.histogram_calls", 0)
        sets = len(self._pair_sets)
        configs = sum(v[0] for v in self._configs.values())
        passes = max((v[0] / (1 << v[1]) for v in self._configs.values()), default=0.0)
        energy_calls = c("hamiltonian.energy_calls", 0)
        out = {f"{g}.self_s": group_self[g] for g in GROUPS}
        out.update({
            "cli.bytes_written": bytes_written,
            "landscape.enumerate.calls": c("landscape.enumerate.calls", 0),
            "landscape.enumerate.assignments": assignments,
            "landscape.enumerate.assignments_per_s": rate(assignments, group_self["landscape.enumerate"]),
            "landscape.enumerate.yield": rate(c("landscape.enumerate.members", 0), assignments),
            "landscape.export.rows": rows,
            "landscape.export.rows_per_s": rate(rows, group_self["landscape.export"]),
            "landscape.pairs.histogram_calls": hist_calls,
            "landscape.pairs.pairs": pairs,
            "landscape.pairs.pairs_per_s": rate(pairs, group_self["landscape.pairs"]),
            "landscape.pairs.histogram_calls_per_set": rate(hist_calls, sets),
            "landscape.cluster.close_pairs": c("landscape.cluster.close_pairs", 0),
            "pspin.scan.configs": configs,
            "pspin.scan.configs_per_s": rate(configs, group_self["pspin.scan"]),
            "pspin.scan.cube_passes": passes,
            "hamiltonian.vector_passes": rate(c("hamiltonian.energy_vector_passes", 0), energy_calls),
            "hamiltonian.amplitudes_per_s": rate(c("hamiltonian.amplitudes", 0), group_self["hamiltonian"]),
            "theory.windows": c("theory.windows", 0),
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_wall_s,
            "trace.unattributed_s": wall_s - sum(group_self[g] for g in GROUPS),
        })
        out.update(inclusive)
        return out

