"""Span tracing of the ewens layers, installed from outside the package.

`Tracer.prepare` builds a recording wrapper for every traced function,
to be swapped in at every module that binds it (so `ewens.distances._tlm_log`
and `ewens.laws._tlm_log` both record), and for the public methods of the
package's classes; `enable` and `disable` swap them in and out. A span's
layer is the module that defines the function, not the module that calls
it. Spans are kept in memory; a layer's self time is its spans' durations
minus the durations of their direct child spans, so the self times of the
layers, the harness and the tracing add up to the traced wall time of the
requests exactly.

Work counts (DP cells, dense sampler cells, jumps, ...) are computed from
each call's arguments and result by the hooks below, in a span of the
tracing's own once the call's span has closed. The same hooks pair each
`RngState.generator` call with the `RngState.substream` call that made
its state, for the set-up time per substream+generator pair.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "special", "laws", "bruteforce", "sampling", "distances",
    "regimes", "paths", "cli", "checks",
)
HARNESS = "harness"
TRACING = "tracing"

# Private names traced anyway: the T_lm dynamic program, where the exact
# laws spend their time.
TRACED_PRIVATE = frozenset({"_tlm_log"})
# Dunders that run validation work worth attributing to the defining layer.
TRACED_DUNDERS = frozenset({"__init__", "__post_init__"})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _tlm_cells(tracer, args, kwargs, result, seconds):
    # One DP step per j in l+1..m touches (V+1) cells for k = 0 and
    # V+1-k*j cells for each k = 1..V//j.
    l = int(_arg(args, kwargs, 1, "l"))
    m = int(_arg(args, kwargs, 2, "m"))
    v = int(_arg(args, kwargs, 3, "max_value"))
    j = np.arange(l + 1, m + 1, dtype=np.int64)
    kmax = v // j
    tracer.counts["laws.tlm_cells"] += int(((v + 1) * (kmax + 1) - j * kmax * (kmax + 1) // 2).sum())


def _feller(tracer, args, kwargs, result, seconds):
    tracer.counts["sampling.draws"] += 1
    tracer.counts["sampling.dense_cells"] += _arg(args, kwargs, 0, "params").n
    tracer.counts["sampling.blocks"] += result.c_n.num_blocks


def _crp(tracer, args, kwargs, result, seconds):
    tracer.counts["sampling.draws"] += 1
    tracer.counts["sampling.dense_cells"] += _arg(args, kwargs, 0, "params").n
    tracer.counts["sampling.blocks"] += result.num_blocks


def _kn(tracer, args, kwargs, result, seconds):
    tracer.counts["sampling.draws"] += 1
    tracer.counts["sampling.dense_cells"] += _arg(args, kwargs, 0, "params").n - 1
    tracer.counts["sampling.blocks"] += int(result)


def _build_path(tracer, args, kwargs, result, seconds):
    tracer.counts["paths.jumps"] += int(result.jump_u.size)


def _functional_stat(tracer, args, kwargs, result, seconds):
    if _arg(args, kwargs, 2, "which") == "X2":
        tracer.counts["paths.x2_grid_points"] += _arg(args, kwargs, 0, "path").n


def _reference(tracer, args, kwargs, result, seconds):
    grid_m = int(_arg(args, kwargs, 3, "grid_m"))
    tracer.counts["paths.reference_normals"] += grid_m * int(_arg(args, kwargs, 4, "replicates"))


def _substream(tracer, args, kwargs, result, seconds):
    # the new state is kept alive until a generator is made from it, so its
    # id cannot be reused meanwhile
    tracer.substreams[id(result)] = (result, seconds)


def _generator(tracer, args, kwargs, result, seconds):
    # a substream+generator pair: a generator made from a substream's state;
    # substreams that only derive further substreams are not set-up of a draw
    made = tracer.substreams.pop(id(args[0]), None)
    if made is not None:
        tracer.counts["sampling.setup_pairs"] += 1
        tracer.setup_s += made[1] + seconds


HOOKS = {
    ("sampling", "RngState.substream"): _substream,
    ("sampling", "RngState.generator"): _generator,
    ("laws", "_tlm_log"): _tlm_cells,
    ("sampling", "sample_feller"): _feller,
    ("sampling", "sample_crp"): _crp,
    ("sampling", "sample_kn"): _kn,
    ("paths", "build_path"): _build_path,
    ("paths", "functional_stat"): _functional_stat,
    ("paths", "reference_functionals"): _reference,
}

COUNTS = (
    "laws.tlm_cells", "sampling.dense_cells", "sampling.draws",
    "paths.jumps", "paths.x2_grid_points", "paths.reference_normals",
)
# Metrics the hooks compute from arguments and results, not measure.
COMPUTED = (*COUNTS, "sampling.blocks_per_cell")


class Tracer:
    """Records (span_id, parent_id, request_id, layer, name, t0, t1, self, ok)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.substreams: dict = {}  # id -> (RngState, substream call seconds)
        self.setup_s = 0.0  # substream+generator pairs, inclusive seconds
        self.request_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)

    # -- recording -------------------------------------------------------
    def _open(self) -> list:
        frame = [self._next_id, 0.0, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, name: str, ok: bool) -> None:
        t1 = perf_counter()
        self._stack.pop()
        dur = t1 - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((
            frame[0], -1 if parent is None else parent[0], self.request_id,
            layer, name, frame[2], t1, dur - frame[1], ok,
        ))

    def request(self, request_id: int, fn, *args):
        """Run one request under a harness span; returns (result, seconds)."""
        self.request_id = request_id
        frame = self._open()
        ok = False
        try:
            result = fn(*args)
            ok = True
        finally:
            self._close(frame, HARNESS, "request", ok)
        return result, self.last_seconds()

    def last_seconds(self) -> float:
        span = self.spans[-1]
        return span[6] - span[5]

    def _wrap(self, fn, layer: str, name: str):
        hook = HOOKS.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(frame, layer, name, ok)
            if hook is not None:
                seconds = tracer.last_seconds()
                # the count is tracing's own work: a span of its own keeps
                # it out of the caller's self time
                frame = tracer._open()
                try:
                    hook(tracer, args, kwargs, result, seconds)
                finally:
                    tracer._close(frame, TRACING, name, True)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def prepare(self, modules) -> None:
        """Build a wrapper for every traced function and method; enable()
        and disable() then swap them in and out."""
        wrappers: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith("ewens."):
                    if attr.startswith("_") and attr not in TRACED_PRIVATE:
                        continue
                    if obj not in wrappers:
                        layer = obj.__module__.split(".")[1]
                        wrappers[obj] = self._wrap(obj, layer, obj.__name__)
                    self._patches.append((mod, attr, obj, wrappers[obj]))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._prepare_class(obj, mod.__name__.split(".")[1])

    def _prepare_class(self, cls, layer: str) -> None:
        generated_init = dataclasses.is_dataclass(cls)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            if attr == "__init__" and generated_init:
                continue  # dataclass __init__ only forwards to __post_init__
            name = f"{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, layer, name))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, layer, name)
            else:
                continue
            self._patches.append((cls, attr, obj, new))

    def enable(self) -> None:
        for owner, attr, _old, new in self._patches:
            setattr(owner, attr, new)

    def disable(self) -> None:
        for owner, attr, old, _new in reversed(self._patches):
            setattr(owner, attr, old)

    # -- output ----------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer totals over all recorded spans."""
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        failed: Counter = Counter()
        tlm_self = 0.0
        request_wall = 0.0
        for _sid, _parent, _rid, layer, name, t0, t1, self_t, ok in self.spans:
            self_s[layer] += self_t
            if layer == HARNESS:
                request_wall += t1 - t0
            if layer in (HARNESS, TRACING):
                continue
            calls[layer] += 1
            failed[layer] += not ok
            if name == "_tlm_log":
                tlm_self += self_t
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self_s[layer] * 1e3, "ms")
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.failed"] = (failed[layer], "count")
        out["harness.self_ms"] = (self_s[HARNESS] * 1e3, "ms")
        out["tracing.self_ms"] = (self_s[TRACING] * 1e3, "ms")
        out["laws.tlm_log.self_ms"] = (tlm_self * 1e3, "ms")
        pairs = self.counts["sampling.setup_pairs"]
        out["sampling.setup_us"] = (self.setup_s * 1e6 / pairs if pairs else 0.0, "us")
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        cells = self.counts["sampling.dense_cells"]
        out["sampling.blocks_per_cell"] = (
            self.counts["sampling.blocks"] / cells if cells else 0.0, "ratio"
        )
        module_self = sum(self_s[layer] for layer in LAYERS)
        out["trace.request_wall_ms"] = (request_wall * 1e3, "ms")
        # share of the request wall time, tracing's own counting excluded,
        # that the package's layers account for; the rest is harness glue
        measured = request_wall - self_s[TRACING]
        out["trace.coverage"] = (module_self / measured if measured else 0.0, "fraction")
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span_id,parent_id,request_id,layer,name,start_s,end_s,self_s,ok\n")
            for sid, parent, rid, layer, name, t0, t1, self_t, ok in self.spans:
                fh.write(f"{sid},{parent},{rid},{layer},{name},{t0!r},{t1!r},{self_t!r},{int(ok)}\n")
