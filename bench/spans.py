"""Span tracing of bsme's layer entry points, installed from outside the package.

Each target is replaced, on the module or class the caller looks it up on,
by a wrapper that records a span: name, start, end, parent, thread and the
id of the benchmark operation it ran in, plus the thread CPU time it took.
Spans are kept in memory; each operation's spans are folded into per-layer
totals when it ends, and the first spans recorded, up to a fixed number,
are kept whole for the span file.

Self time is a span minus its same-thread children.  Busy layers report
self CPU time, so two party threads sharing the interpreter lock do not
count each other's turns, less the tracer's own cost per span, which
``calibrate`` measures on an empty function: part of it falls inside a
span's window and the rest lands in its caller's.  Channel receives report self wall time: the time
spent blocked on the peer.  The runner's self time is its session span
minus the union of every span, in any thread, that ran inside it.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter, thread_time

# (module, class or None, attributes, layer).  Module-level functions are
# wrapped on the module that calls them, under the name it looks them up by.
TARGETS = [
    ("bsme.app.runner", None, ("generate",), "source.generate"),
    ("bsme.commit", None, ("sample_positions",), "source.sample_positions"),
    ("bsme.ot", None, ("sample_positions",), "source.sample_positions"),
    ("bsme.bits", "BitString", ("restrict",), "bits.restrict"),
    ("bsme.bits", "IndexSet", ("to_mask", "from_mask"), "bits.index_mask"),
    ("bsme.hashing", "ToeplitzHash", ("__init__", "__call__"), "hashing.toeplitz"),
    ("bsme.commit", None, ("strong_extract",), "hashing.toeplitz"),
    ("bsme.codes", None, ("strong_extract",), "hashing.toeplitz"),
    ("bsme.gf2", None, ("solve_affine_pair",), "gf2.solve_affine_pair"),
    ("bsme.gf2", "Echelon", ("reduce", "add"), "gf2.echelon"),
    ("bsme.ihash", "Querier", ("__init__", "next_query", "take_response", "outcome"),
     "ihash.querier"),
    ("bsme.ihash", "Respondent", ("__init__", "respond", "outcome"), "ihash.respondent"),
    ("bsme.ihash", None, ("solve_pair",), "ihash.solve_pair"),
    ("bsme.harness", None, ("solve_pair",), "ihash.solve_pair"),
    ("bsme.subsets", "DenseCode", ("__init__", "encode", "decode", "random_copy"),
     "subsets.dense_code"),
    ("bsme.ot", None, ("fuzzy_ext", "fuzzy_rec"), "codes.fuzzy"),
    ("bsme.commit", "Committer", ("__init__", "transmit", "make_commitment", "open"),
     "commit.parties"),
    ("bsme.commit", "Verifier",
     ("__init__", "transmit", "choose_hash", "receive_commitment", "verify"), "commit.parties"),
    ("bsme.ot", "OTSender",
     ("__init__", "transmit", "begin_setup", "next_query", "take_response", "finish_setup",
      "transfer"), "ot.parties"),
    ("bsme.ot", "OTReceiver",
     ("__init__", "transmit", "receive_positions", "respond", "finish_setup",
      "receive_payload"), "ot.parties"),
    ("bsme.harness", None, ("ih_theta_attack",), "harness.ih_theta"),
    ("bsme.app.runner", None, ("encode_message",), "app.framing.encode"),
    ("bsme.app.runner", None, ("decode_message",), "app.framing.decode"),
    ("bsme.app.channel", "MemoryChannel", ("send",), "app.channel.send"),
    ("bsme.app.channel", "StreamChannel", ("send",), "app.channel.send"),
    ("bsme.app.channel", "MemoryChannel", ("recv",), "app.channel.recv_wait"),
    ("bsme.app.channel", "StreamChannel", ("recv",), "app.channel.recv_wait"),
    ("bsme.app.runner", None, ("run_ot_session", "run_commit_session"), "app.runner.session"),
]

WAIT_LAYER = "app.channel.recv_wait"
KEEP_SPANS = 10_000  # spans written to the span file
SESSION_LAYER = "app.runner.session"
COUNTED_LAYER = "app.framing.encode"  # spans carry the encoded frame's byte count

BUSY_METRICS = [
    ("source.generate", "source.generate.ms_per_op"),
    ("source.sample_positions", "source.sample_positions.ms_per_op"),
    ("bits.restrict", "bits.restrict.ms_per_op"),
    ("bits.index_mask", "bits.index_mask.ms_per_op"),
    ("hashing.toeplitz", "hashing.toeplitz.ms_per_op"),
    ("gf2.solve_affine_pair", "gf2.solve_affine_pair.ms_per_op"),
    ("gf2.echelon", "gf2.echelon.ms_per_op"),
    ("ihash.querier", "ihash.querier.ms_per_op"),
    ("ihash.respondent", "ihash.respondent.ms_per_op"),
    ("ihash.solve_pair", "ihash.solve_pair.ms_per_op"),
    ("subsets.dense_code", "subsets.dense_code.ms_per_op"),
    ("codes.fuzzy", "codes.fuzzy.ms_per_op"),
    ("commit.parties", "commit.parties.ms_per_op"),
    ("ot.parties", "ot.parties.ms_per_op"),
    ("harness.ih_theta", "harness.ih_theta.self_ms_per_op"),
    ("app.framing.encode", "app.framing.encode.ms_per_op"),
    ("app.framing.decode", "app.framing.decode.ms_per_op"),
    ("app.channel.send", "app.channel.send.ms_per_op"),
]


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Installs the span wrappers on the given bsme modules and folds spans per operation."""

    def __init__(self, modules: dict):
        self._targets = []
        for mod_name, cls_name, attrs, layer in TARGETS:
            owner = modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            for attr in attrs:
                raw = owner.__dict__[attr]
                self._targets.append((owner, attr, raw, self._wrap(raw, layer)))
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main_stack: list = []
        self._op = None
        self._spans: list = []
        self.kept: list = []
        self.ops = 0
        self.totals: dict[str, float] = defaultdict(float)
        self.inside = self.outside = 0.0

    def calibrate(self) -> None:
        """Measure the tracer's CPU cost per span, inside and outside the span's window."""
        calls = 20_000
        def noop(a, b):
            pass

        traced = self._wrap(noop, "calibration")
        inside, outside = [], []
        for _ in range(5):
            c0 = thread_time()
            for _ in range(calls):
                noop(1, 2)
            plain = thread_time() - c0
            self._op = -1
            c0 = thread_time()
            for _ in range(calls):
                traced(1, 2)
            total = thread_time() - c0
            self._op = None
            recorded = sum(s[8] for s in self._spans)
            self._spans = []
            inside.append((recorded - plain) / calls)
            outside.append((total - recorded) / calls)
        self.inside = statistics.median(inside)
        self.outside = statistics.median(outside)

    # wrapping -----------------------------------------------------------

    def _thread(self) -> tuple[list, int]:
        """This thread's open-span stack and its identifier."""
        local = self._local
        try:
            return local.stack, local.ident
        except AttributeError:
            local.stack, local.ident = [], threading.get_ident()
            return local.stack, local.ident

    def _wrap(self, raw, layer: str):
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        name = f"{fn.__module__.removeprefix('bsme.')}.{fn.__qualname__}"
        counted = layer == COUNTED_LAYER
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack, ident = tracer._thread()
            # A party thread's outermost span belongs to the benchmark
            # thread's innermost open span (the session that started it).
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            size = 0
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counted:
                    size = len(result)
                return result
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                tracer._spans.append(
                    (op, sid, parent, name, layer, ident, t0, t1, c1 - c0, size)
                )

        traced.__wrapped__ = fn
        return classmethod(traced) if is_classmethod else traced

    def install(self) -> None:
        for owner, attr, _raw, wrapped in self._targets:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _wrapped in self._targets:
            setattr(owner, attr, raw)

    # operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self._main_stack = self._thread()[0]
        self._op = self.ops

    def end_op(self, t0: float, t1: float) -> None:
        self._op = None
        spans, self._spans = self._spans, []
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(spans[:room])
        self.ops += 1
        self._fold(spans, t0, t1)

    def _fold(self, spans: list, t0: float, t1: float) -> None:
        totals = self.totals
        by_id = {s[1]: s for s in spans}
        child_wall: dict[int, float] = defaultdict(float)
        child_cpu: dict[int, float] = defaultdict(float)
        for _op, _sid, parent, _name, _layer, thread, a, b, cpu, _size in spans:
            p = by_id.get(parent)
            if p is not None and p[5] == thread:
                child_wall[parent] += b - a
                child_cpu[parent] += cpu + self.outside
        busy = 0.0
        runner_self = 0.0
        threads = set()
        main = threading.get_ident()
        for _op, sid, parent, name, layer, thread, a, b, cpu, size in spans:
            if thread != main:
                threads.add(thread)
            if layer == WAIT_LAYER:
                totals[layer] += b - a - child_wall[sid]
            elif layer == SESSION_LAYER:
                inner = [(s[6], s[7]) for s in spans if s[1] != sid]
                runner_self += b - a - union_length(inner, a, b)
            else:
                self_cpu = cpu - child_cpu[sid] - self.inside
                totals[layer] += self_cpu
                busy += self_cpu
            totals["calls:" + name] += 1
            if layer == COUNTED_LAYER:
                totals["frames"] += 1
                totals["bytes"] += size
            if name == "gf2.Echelon.reduce":
                p = by_id.get(parent)
                if p is not None and p[3] == "ihash.Querier.next_query":
                    totals["candidates"] += 1
        totals["app.runner.self"] += runner_self
        totals["threads"] += len(threads)
        overhead = len(spans) * (self.inside + self.outside)
        totals["spans"] += len(spans)
        totals["unattributed"] += (t1 - t0) - busy - runner_self - overhead

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-operation figures of every traced operation so far."""
        t = self.totals
        per_op = max(self.ops, 1)
        out = {metric: (1e3 * t[layer] / per_op, "ms") for layer, metric in BUSY_METRICS}
        queries = t["calls:ihash.Querier.next_query"]
        out.update({
            "gf2.solve_affine_pair.calls_per_op":
                (t["calls:gf2.solve_affine_pair"] / per_op, "count"),
            "ihash.candidates_per_query": (t["candidates"] / queries if queries else 0.0, "count"),
            "app.framing.frames_per_op": (t["frames"] / per_op, "count"),
            "app.framing.bytes_per_op": (t["bytes"] / per_op, "bytes"),
            "app.channel.recv_wait.ms_per_op": (1e3 * t[WAIT_LAYER] / per_op, "ms"),
            "app.runner.self.ms_per_op": (1e3 * t["app.runner.self"] / per_op, "ms"),
            "app.runner.threads_per_op": (t["threads"] / per_op, "count"),
            "trace.unattributed.ms_per_op": (1e3 * t["unattributed"] / per_op, "ms"),
            "trace.spans_per_op": (t["spans"] / per_op, "count"),
        })
        return out

    def span_records(self):
        """Kept spans as dicts, times in ms from the first kept span."""
        if not self.kept:
            return []
        origin = min(s[6] for s in self.kept)
        return [
            {"op": op, "id": sid, "parent": parent, "name": name, "layer": layer,
             "thread": thread, "start_ms": 1e3 * (a - origin), "end_ms": 1e3 * (b - origin),
             "cpu_ms": 1e3 * cpu}
            for op, sid, parent, name, layer, thread, a, b, cpu, _size in self.kept
        ]
