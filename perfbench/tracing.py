"""Traced runs: per-layer self time, measured from the benchmark's side.

The program is not changed.  :class:`Tracer` installs wrappers on the
program's functions and methods that other layers call (class
attributes are patched in place; module functions are patched at every
module that imported them) and keeps a stack of the layer each running
frame belongs to.  A layer is a package under ``src/repro``.  The clock
is read at each layer crossing, and the interval since the previous
crossing is charged to the layer on top of the stack; the sum is each
layer's span time minus its child spans.  A call within the same layer
passes straight through.

Work the event loop runs on behalf of another layer is charged to that
layer: callbacks handed to ``EventLoop.schedule``, message handlers set
on connections and duplex streams (the fast path delivers into them),
and HTTP response and request handlers are wrapped where they are
registered and named with :func:`repro.obs.profiler.callback_site`.

Spans (name, start, end, parent span, request id) are kept in memory for
a few coarse entry points: one per benchmark unit, study batch, session,
world shard, campaign cell and store write.  Every other crossing is
folded into a per-parent counter of calls and nanoseconds.  Both are
written as JSONL when the run ends.

The clock reads and bookkeeping of each crossing are charged partly to
the caller and partly to the callee.  :meth:`Tracer.calibrate` measures
both parts on a no-op, and :meth:`Tracer.layer_self_ns` subtracts them
per crossing.

Leaf calls are sampled.  Hot leaves (a metrics lookup, a broadcast's
viewer curve) are entered millions of times; timing each entry would
double the run.  Once a function has shown that its timed calls cross
into no further layer, only the first and every sixteenth call from a
given parent and caller is timed; the others only count, and their time
is moved from the caller to the callee at the mean of the timed calls
that no garbage collection interrupted.

Garbage collection is a layer of its own, ``gc``: a collection stops
whichever call happens to allocate, for up to milliseconds, so its pauses
are charged to ``gc`` rather than to that call's layer.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import inspect
import itertools
import json
import pathlib
import pkgutil
import re
import statistics
import sys
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

BENCH = "bench"

#: Packages no workload runs; left unwrapped.
UNTRACED_PACKAGES = frozenset({"lint", "experiments", "analysis"})

#: Accessors cheaper than a crossing: wrapping them would add more than
#: they cost.  Their time stays with the caller.
UNWRAPPED = frozenset({"repro.obs.active"})

#: Entry points recorded as individual spans.  The value names the
#: argument (by position) that extends the request id, or None.
SPANS = {
    "repro.core.study.AutomatedViewingStudy.run_batch": None,
    "repro.core.session.ViewingSession.run": None,
    "repro.core.popstudy.PopulationStudy.run": None,
    "repro.world.shards.compute_shard": 1,
    "repro.crawler.client.CrawlHarness.run_until": None,
    "repro.campaign.runner.CampaignRunner.run": None,
    "repro.campaign.cells.execute_cell": 0,
    "repro.campaign.hashing.content_hash": None,
    "repro.campaign.store.CampaignStore.put_blob": None,
    "repro.campaign.store.CampaignStore.append_record": None,
    "repro.campaign.store.CampaignStore.write_artifact": None,
}

#: (callable, parameter) pairs whose argument is a callback another
#: layer will run.
CALLBACK_TAKERS = (
    ("repro.netsim.events.EventLoop.schedule", "callback"),
    ("repro.protocols.http.HttpClient.request", "callback"),
    ("repro.protocols.http.HttpServer.__init__", "handler"),
)

#: Attributes that hold message handlers the transport calls.
CALLBACK_ATTRIBUTES = (
    ("repro.netsim.connection", "Connection", "on_message"),
    ("repro.netsim.duplex", "DuplexStream", "on_at_a"),
    ("repro.netsim.duplex", "DuplexStream", "on_at_b"),
)


def _count_calls(result) -> int:
    return 1


#: Work counters at layer boundaries: target -> (counter, increment from
#: the result).  Generator targets count the items they yield.
COUNTERS = {
    "repro.media.encoder.VideoEncoder.generate": ("media.frames", None),
    "repro.media.audio.AacEncoderModel.generate": ("media.frames", None),
    "repro.protocols.rtmp.RtmpPushSession.push_frame": (
        "protocols.mux_bytes", lambda message: message.nbytes),
    "repro.protocols.mpegts.mux_segment": ("protocols.mux_bytes", len),
    "repro.protocols.http.HttpClient.request": ("protocols.http_requests", _count_calls),
    "repro.service.broadcast.Broadcast.__init__": ("service.broadcasts_built", _count_calls),
    "repro.service.api.ApiServer.handle": ("service.api_requests", _count_calls),
    "repro.world.cohorts.build_cohorts": ("world.cohorts", len),
}

#: Event-loop runners: ``events_processed`` grows only inside them.
EVENT_LOOP_RUNS = (
    "repro.netsim.events.EventLoop.run",
    "repro.netsim.events.EventLoop.run_until",
)

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"


def mentions_outside(root: pathlib.Path, extra=()) -> Dict[str, Dict[str, set]]:
    """Layer -> what the *other* layers' sources mention: bare names
    (``name``), attributes (``.attr``) and calls (``name(``).

    A function no other layer names, a method no other layer reaches as
    an attribute, and a class no other layer calls can only be entered
    from their own layer (or through a registered callback), so they are
    left unwrapped: a pass-through wrapper would cost more than it tells.
    """
    found: Dict[str, Dict[str, set]] = {}
    for path in list(root.rglob("*.py")) + list(extra):
        layer = path.relative_to(root).parts[0] if path.is_relative_to(root) else BENCH
        text = path.read_text(encoding="utf-8")
        kinds = found.setdefault(layer, {"name": set(), "attr": set(), "call": set()})
        kinds["name"].update(re.findall(_NAME, text))
        kinds["attr"].update(re.findall(r"\.(" + _NAME + ")", text))
        kinds["call"].update(re.findall("(" + _NAME + r")\s*\(", text))
    return {layer: {kind: set().union(*(k[kind] for other, k in found.items()
                                           if other != layer))
                    for kind in ("name", "attr", "call")}
            for layer in found}


def layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return None


def _resolve(path: str):
    """(owner, attribute name, current value) for a dotted target."""
    module_name, _, rest = path.rpartition(".")
    owner_name = None
    if module_name not in sys.modules:
        module_name, _, owner_name = module_name.rpartition(".")
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name)
    return owner, rest, owner.__dict__[rest]


def _invoke(callback, *args):
    return callback(*args)


#: Index of the fields of a layer cell: ``[self_ns, name, into, out]``.
SELF_NS, NAME, INTO, OUT = range(4)
#: Index of the fields of a fold: timed calls and their ns, untimed
#: calls, and the timed calls no garbage collection interrupted.
TIMED, TIMED_NS, UNTIMED, CLEAN, CLEAN_NS = range(5)
#: A leaf's calls from one parent and caller are timed when
#: ``calls & SAMPLE_MASK == 0``.
SAMPLE_MASK = 15


class Tracer:
    """Layer-crossing accounting for one traced run.

    Each layer has a *cell*, ``[self_ns, name, crossings into, crossings
    out of]``; the stack holds cells, so the hot path does list indexing
    only.
    """

    def __init__(self) -> None:
        self.cells: Dict[str, list] = {}
        self.stack: List[list] = [self.cell(BENCH)]
        self.gc_cell = self.cell("gc")
        self.mark = [time.perf_counter_ns()]
        self.counts: Counter = Counter()
        #: (parent span id, name, caller layer) -> fold fields (see CLEAN)
        self.folds: Dict[Tuple[int, str, str], List[int]] = {}
        self.layer_by_name: Dict[str, str] = {}
        #: (id, parent, name, layer, start_ns, end_ns, request)
        self.spans: List[tuple] = []
        self.span_stack: List[int] = [0]
        self.request = [""]
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self.untimed_ns = 0.0
        self._ids = itertools.count(1)
        self._undo: List[tuple] = []
        #: Garbage collections finished so far.
        self.collections = [0]
        #: Callback code object -> per-site wrapper (None: run as is).
        self._sites: Dict[object, object] = {}
        from repro.obs.profiler import callback_site

        #: Bound before install, so naming a site is not itself traced.
        self._callback_site = callback_site

    def cell(self, layer: str) -> list:
        cell = self.cells.get(layer)
        if cell is None:
            cell = self.cells[layer] = [0, layer, 0, 0]
        return cell

    # ---------------------------------------------------------- wrappers

    def wrap(self, func, layer: str, name: str, span_arg=False):
        """A wrapper charging ``func``'s time to ``layer``.  ``span_arg``
        False folds the call; None or an argument index records a span."""
        cell = self.cell(layer)
        self.layer_by_name[name] = layer
        if inspect.isgeneratorfunction(func):
            traced = self._generator(func, cell, name)
        elif span_arg is False:
            traced = self._fold(func, cell, name)
        else:
            traced = self._span(func, cell, name, span_arg)
        traced = functools.wraps(func)(traced)
        traced._bench_layer = layer
        return traced

    def _folder(self, name: str):
        """``fold_of(caller_cell)``: the per-parent counter of calls from
        that caller under the current span, caching the last one."""
        folds, span_stack = self.folds, self.span_stack
        cache = [None, None, None]

        def fold_of(top):
            span = span_stack[-1]
            if cache[0] == span and cache[1] is top:
                return cache[2]
            key = (span, name, top[NAME])
            entry = folds.get(key)
            if entry is None:
                entry = folds[key] = [0, 0, 0, 0, 0]
            cache[0], cache[1], cache[2] = span, top, entry
            return entry
        return fold_of

    def _fold(self, func, cell, name, sampled=True):
        stack, mark, clock = self.stack, self.mark, time.perf_counter_ns
        fold_of = self._folder(name)
        leaf = [sampled]
        collections = self.collections

        def traced(*args, **kwargs):
            top = stack[-1]
            if top is cell:
                return func(*args, **kwargs)
            fold = fold_of(top)
            if leaf[0] and (fold[TIMED] + fold[UNTIMED]) & SAMPLE_MASK:
                # Untimed, but on the stack, so that the leaf's calls
                # within its own layer still pass through.
                fold[UNTIMED] += 1
                crossed = cell[OUT]
                stack.append(cell)
                try:
                    return func(*args, **kwargs)
                finally:
                    stack.pop()
                    if cell[OUT] != crossed:
                        leaf[0] = False
            collected = collections[0]
            crossed = cell[OUT]
            start = clock()
            top[SELF_NS] += start - mark[0]
            top[OUT] += 1
            cell[INTO] += 1
            mark[0] = start
            stack.append(cell)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                if cell[OUT] != crossed:
                    leaf[0] = False  # it crossed further: time every call
                cell[SELF_NS] += end - mark[0]
                mark[0] = end
                stack.pop()
                fold[TIMED] += 1
                fold[TIMED_NS] += end - start
                if collections[0] == collected:
                    fold[CLEAN] += 1
                    fold[CLEAN_NS] += end - start
        return traced

    def _generator(self, func, cell, name):
        stack, mark, clock = self.stack, self.mark, time.perf_counter_ns
        fold_of = self._folder(name)

        def traced(*args, **kwargs):
            generator = func(*args, **kwargs)
            while True:
                top = stack[-1]
                if top is cell:
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                else:
                    start = clock()
                    top[SELF_NS] += start - mark[0]
                    top[OUT] += 1
                    cell[INTO] += 1
                    mark[0] = start
                    stack.append(cell)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        cell[SELF_NS] += end - mark[0]
                        mark[0] = end
                        stack.pop()
                        fold = fold_of(top)
                        fold[TIMED] += 1
                        fold[TIMED_NS] += end - start
                yield item
        return traced

    def _span(self, func, cell, name, span_arg):
        stack, mark, clock = self.stack, self.mark, time.perf_counter_ns
        spans, span_stack, request, ids = self.spans, self.span_stack, self.request, self._ids
        fold_of = self._folder(name)
        layer = cell[NAME]

        def traced(*args, **kwargs):
            top = stack[-1]
            parent = span_stack[-1]
            outer_request = request[0]
            if span_arg is not None:
                request[0] = f"{outer_request}/{_request_part(args[span_arg])}"
            span_id = next(ids)
            start = clock()
            top[SELF_NS] += start - mark[0]
            top[OUT] += 1
            cell[INTO] += 1
            mark[0] = start
            stack.append(cell)
            span_stack.append(span_id)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                cell[SELF_NS] += end - mark[0]
                mark[0] = end
                stack.pop()
                span_stack.pop()
                spans.append((span_id, parent, name, layer, start, end, request[0]))
                request[0] = outer_request
                fold = fold_of(top)
                fold[TIMED] += 1
                fold[TIMED_NS] += end - start
        return traced

    def callback(self, callback):
        """``callback`` wrapped to charge its defining layer; itself when
        it already is a wrapper, is netsim's own, or is not the program's."""
        func = getattr(callback, "__func__", callback)
        code = getattr(func, "__code__", None)
        site = self._sites.get(code, False)
        if site is False:
            site = self._site(callback, func, code)
        if site is None:
            return callback
        return functools.partial(site, callback)

    def _site(self, callback, func, code):
        target = func
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        layer = layer_of(getattr(target, "__module__", None) or "")
        site = None
        if (layer is not None and layer != "netsim"
                and getattr(target, "_bench_layer", None) is None):
            name = f"cb:{self._callback_site(callback)}"
            self.layer_by_name[name] = layer
            site = self._fold(_invoke, self.cell(layer), name)
        if code is not None and not isinstance(func, functools.partial):
            self._sites[code] = site
        return site

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the functions and methods of the traced packages that
        another layer can call."""
        import repro

        root = pathlib.Path(repro.__path__[0])
        outside = mentions_outside(root, [pathlib.Path(__file__).with_name("workloads.py")])
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if layer_of(info.name) in UNTRACED_PACKAGES or info.name.endswith("__main__"):
                continue
            importlib.import_module(info.name)
        #: id(original module function) -> its replacement
        replaced: Dict[int, tuple] = {}
        self._install_counters(replaced)
        for name, module in sorted(sys.modules.items()):
            layer = layer_of(name)
            if layer is not None and layer not in UNTRACED_PACKAGES:
                self._wrap_module(module, layer, outside[layer], replaced)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                final = value
                while id(final) in replaced and replaced[id(final)][0] is final:
                    final = replaced[id(final)][1]
                if final is not value:
                    self._set(module, attr, final)
        for path, parameter in CALLBACK_TAKERS:
            owner, attr, value = _resolve(path)
            self._set(owner, attr, self._taking_callback(value, parameter))
        for module_name, class_name, attr in CALLBACK_ATTRIBUTES:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._set(cls, attr, _CallbackSlot(self, attr))
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self.stack[-1][SELF_NS] += now - self.mark[0]
        else:
            self.gc_cell[SELF_NS] += now - self.mark[0]
            self.collections[0] += 1
        self.mark[0] = now

    def _set(self, owner, attr: str, value) -> None:
        missing = object()
        self._undo.append((owner, attr, owner.__dict__.get(attr, missing), missing))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, value, missing in reversed(self._undo):
            if value is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def _install_counters(self, replaced: Dict[int, tuple]) -> None:
        counts = self.counts
        for path, (counter, increment) in COUNTERS.items():
            owner, attr, func = _resolve(path)
            if inspect.isgeneratorfunction(func):
                def counted(*args, _func=func, _counter=counter, **kwargs):
                    for item in _func(*args, **kwargs):
                        counts[_counter] += 1
                        yield item
            else:
                def counted(*args, _func=func, _counter=counter,
                            _increment=increment, **kwargs):
                    result = _func(*args, **kwargs)
                    counts[_counter] += _increment(result)
                    return result
            counted = functools.wraps(func)(counted)
            if inspect.ismodule(owner):
                replaced[id(func)] = (func, counted)
            self._set(owner, attr, counted)
        for path in EVENT_LOOP_RUNS:
            owner, attr, func = _resolve(path)

            def driven(loop, *args, _func=func, **kwargs):
                before = loop.events_processed
                try:
                    return _func(loop, *args, **kwargs)
                finally:
                    counts["netsim.events"] += loop.events_processed - before
            self._set(owner, attr, functools.wraps(func)(driven))

    def _wrap_module(self, module, layer: str, outside: Dict[str, set],
                     replaced: Dict[int, tuple]) -> None:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            name = f"{module.__name__}.{attr}"
            if inspect.isfunction(value):
                if name in UNWRAPPED or (attr not in outside["name"] and name not in SPANS):
                    continue
                wrapper = self.wrap(value, layer, name, SPANS.get(name, False))
                replaced[id(value)] = (value, wrapper)
                self._set(module, attr, wrapper)
            elif inspect.isclass(value) and not issubclass(value, BaseException):
                self._wrap_class(value, module, layer, outside)

    def _wrap_class(self, cls, module, layer: str, outside: Dict[str, set]) -> None:
        if any(base.__module__ == "enum" for base in cls.__mro__[1:]):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{module.__name__}.{cls.__qualname__}.{attr}"
            if attr == "__init__":
                reached = cls.__name__ in outside["call"]
            else:
                reached = attr in outside["attr"]
            if not reached and name not in SPANS:
                continue
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(func):
                continue
            if inspect.unwrap(func).__code__.co_filename != module.__file__:
                continue  # generated (dataclass) or borrowed code
            wrapper = self.wrap(func, layer, name, SPANS.get(name, False))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(wrapper)
            self._set(cls, attr, wrapper)

    def _taking_callback(self, func, parameter: str):
        """``func`` with its ``parameter`` argument wrapped as a callback."""
        position = list(inspect.signature(inspect.unwrap(func)).parameters).index(parameter)
        wrap = self.callback

        @functools.wraps(func)
        def taking(*args, **kwargs):
            if len(args) > position:
                args = args[:position] + (wrap(args[position]),) + args[position + 1:]
            elif parameter in kwargs:
                kwargs[parameter] = wrap(kwargs[parameter])
            return func(*args, **kwargs)
        return taking

    # ----------------------------------------------------------- scopes

    def flush(self) -> None:
        """Charge the interval up to now to the layer on top."""
        now = time.perf_counter_ns()
        self.stack[-1][SELF_NS] += now - self.mark[0]
        self.mark[0] = now

    def snapshot(self) -> Tuple[Dict[str, tuple], Counter]:
        self.flush()
        return ({layer: (c[SELF_NS], c[INTO], c[OUT]) for layer, c in self.cells.items()},
                Counter(self.counts))

    @contextlib.contextmanager
    def unit(self, request: str, totals: "Totals") -> Iterator[None]:
        """One benchmark unit: a span, a request id, and the deltas of the
        per-layer totals added to ``totals``."""
        self.request[0] = request
        span_id, parent = next(self._ids), self.span_stack[-1]
        self.span_stack.append(span_id)
        before = self.snapshot()
        start = self.mark[0]
        try:
            yield
        finally:
            after = self.snapshot()
            self.span_stack.pop()
            self.spans.append((span_id, parent, "bench.unit", BENCH, start,
                               self.mark[0], request))
            self.request[0] = ""
            totals.add(before, after)

    # ------------------------------------------------------ calibration

    def calibrate(self, calls: int = 20_000, repeats: int = 7) -> float:
        """Measure what a timed crossing charges the callee and the
        caller, and what an untimed (sampled-out) call charges the
        caller; returns the timed crossing's total in nanoseconds."""
        def noop():
            return None

        callee, caller = self.cell("calib.callee"), self.cell("calib.caller")
        timed_only = self._fold(noop, callee, "calib.timed", sampled=False)
        sampled = self._fold(noop, callee, "calib.sampled")
        inner, outer, untimed = [], [], []
        clock = time.perf_counter_ns
        for _ in range(repeats):
            started = clock()
            for _ in range(calls):
                pass
            empty = clock() - started
            started = clock()
            for _ in range(calls):
                noop()
            plain = clock() - started
            costs = []
            for wrapped in (timed_only, sampled):
                self.flush()
                self.stack.append(caller)
                before, timed_before = callee[SELF_NS], callee[INTO]
                started = clock()
                for _ in range(calls):
                    wrapped()
                total = clock() - started
                self.flush()
                self.stack.pop()
                costs.append((total - plain, callee[SELF_NS] - before,
                              callee[INTO] - timed_before))
            (timed_total, timed_self, _), (mixed_total, _, mixed_timed) = costs
            # The callee's share holds the no-op's own body; take it out.
            charged = timed_self / calls - (plain - empty) / calls
            inner.append(charged)
            outer.append(timed_total / calls - charged)
            untimed.append((mixed_total - mixed_timed * timed_total / calls)
                           / (calls - mixed_timed))
        for key in [k for k in self.folds if k[1].startswith("calib.")]:
            del self.folds[key]
        del self.cells["calib.callee"], self.cells["calib.caller"]
        self.inner_ns = statistics.median(inner)
        self.outer_ns = statistics.median(outer)
        self.untimed_ns = statistics.median(untimed)
        return self.inner_ns + self.outer_ns

    def unit_folds(self) -> Iterator[Tuple[str, str, List[int]]]:
        """(callee layer, caller layer, fold) for the folds recorded
        inside benchmark units."""
        in_units = {span[0] for span in self.spans if span[6]}
        for (span, name, caller), fold in self.folds.items():
            if span in in_units:
                yield self.layer_by_name[name], caller, fold

    def layer_self_ns(self, totals: "Totals") -> Dict[str, float]:
        """Self time per layer less the calibrated crossing cost, with
        the time of untimed leaf calls moved from caller to callee."""
        own = {layer: ns - self.inner_ns * totals.into[layer]
               - self.outer_ns * totals.out[layer]
               for layer, ns in totals.self_ns.items()}
        for callee, caller, fold in self.unit_folds():
            if fold[UNTIMED]:
                calls, ns = (fold[CLEAN], fold[CLEAN_NS]) if fold[CLEAN] else (
                    fold[TIMED], fold[TIMED_NS])
                body = fold[UNTIMED] * (ns / calls - self.inner_ns)
                own[callee] = own.get(callee, 0.0) + body
                own[caller] -= body + fold[UNTIMED] * self.untimed_ns
        return own

    def tracer_ns(self, totals: "Totals") -> float:
        """The calibrated cost of the tracer's own bookkeeping in the units."""
        untimed = sum(fold[UNTIMED] for _callee, _caller, fold in self.unit_folds())
        return (self.inner_ns * sum(totals.into.values())
                + self.outer_ns * sum(totals.out.values())
                + self.untimed_ns * untimed)

    def calls_into(self, layer: str) -> int:
        """Calls (timed or not) from other layers into ``layer`` inside
        benchmark units."""
        return sum(fold[TIMED] + fold[UNTIMED]
                   for callee, _caller, fold in self.unit_folds() if callee == layer)

    # ------------------------------------------------------------ output

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, layer, start, end, request in self.spans:
                out.write(json.dumps({
                    "span": span_id, "parent": parent, "name": name,
                    "layer": layer, "start_ns": start, "end_ns": end,
                    "request": request}) + "\n")
            for (parent, name, caller), (timed, ns, untimed, _, _) in sorted(
                    self.folds.items()):
                out.write(json.dumps({
                    "fold": name, "parent": parent, "caller": caller,
                    "timed_calls": timed, "timed_ns": ns,
                    "untimed_calls": untimed}) + "\n")


def _request_part(value) -> str:
    if isinstance(value, tuple) and len(value) == 2:  # campaign (key, cell)
        return f"cell:{value[1].label()}"
    return f"shard:{value}"


class _CallbackSlot:
    """A data descriptor that wraps each handler assigned to it."""

    def __init__(self, tracer: Tracer, attr: str) -> None:
        self.tracer = tracer
        self.key = f"_bench_{attr}"

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.get(self.key)

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.key] = self.tracer.callback(value)


class Totals:
    """Per-layer totals accumulated over the traced units."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.into: Counter = Counter()
        self.out: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, before, after) -> None:
        for layer, (ns, into, out) in after[0].items():
            ns0, into0, out0 = before[0].get(layer, (0, 0, 0))
            self.self_ns[layer] += ns - ns0
            self.into[layer] += into - into0
            self.out[layer] += out - out0
        self.counts.update(after[1])
        self.counts.subtract(before[1])
