"""Spans around ppsim's layer entry points, for the benchmark's traced run.

The tracer patches each entry point where its caller looks it up, times
every call as a span and undoes every patch when the ``with`` block ends.
Nothing inside ppsim changes; the benchmark process alone is patched.

* ``ppsim.quantum.*``: every public function.  ``apply_unitary`` and
  ``measure`` are split by register width (``1q`` for one qubit, ``2q``
  for two or more).
* ``ppsim.optics``: ``Photon`` and ``Pulse`` construction (their
  ``__init__``), ``apply_filter`` and ``is_visible`` as ``ppsim.protocols``
  sees them, ``split_by_wavelength`` as ``ppsim.adversaries`` sees it.
* ``ppsim.harness``: ``run_round`` and ``make_strategy``.  Each round's
  random stream is handed on behind a counting proxy that forwards every
  draw unchanged, and each strategy's leg hooks and ``finalize`` are
  wrapped on the instance ``make_strategy`` returns.
* ``ppsim.run_session`` and ``ppsim.cli.run_session``, ``ppsim.cli.main``,
  and the scenario entry points ``ppsim.cli`` calls.

Spans are aggregated in memory per thread (calls, inclusive and self time
per span name) and read out at the end.  A span's self time is its
duration minus the part its child spans cover; a child covers its own
bookkeeping too, so the tracer's cost does not land in its parent.  Rounds
that a worker thread runs are children of the ``run_session`` span that
spawned them, so that span's self time subtracts the union of their
intervals.  Spans are wall-clock: in a ``workers=2`` session a span also
counts the time its thread waits for the interpreter lock.
"""

from __future__ import annotations

import inspect
import threading
from time import perf_counter
from typing import Any, Callable

import ppsim
import ppsim.adversaries
import ppsim.cli
import ppsim.harness
import ppsim.optics
import ppsim.protocols
import ppsim.quantum
import ppsim.scenario

SPAN_NAMES = (
    "quantum.apply_unitary.1q", "quantum.apply_unitary.2q",
    "quantum.measure.1q", "quantum.measure.2q", "quantum.measure_bell",
    "quantum.make_single", "quantum.make_bell", "quantum.rot", "quantum.other",
    "optics.photon_init", "optics.pulse_init", "optics.apply_filter",
    "optics.split_by_wavelength", "optics.is_visible",
    "adversaries.on_b_to_a", "adversaries.on_a_to_b", "adversaries.on_a_to_b_leg3",
    "adversaries.finalize",
    "protocols.run_round", "harness.make_strategy", "harness.rng",
    "harness.run_session", "scenario.parse", "cli.main",
    "perfbench.calibration",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_SESSION = _ID["harness.run_session"]

# Counters kept next to the spans.
COUNTERS = ("absorbed", "probes_injected", "guesses", "useful_guesses", "log_records")

_LEG_HOOKS = ("on_b_to_a", "on_a_to_b", "on_a_to_b_leg3")
_SPLIT_BY_WIDTH = ("apply_unitary", "measure")
_OWN_NAME = ("measure_bell", "make_single", "make_bell", "rot")
_MAX_PROXIES = 64


class _ThreadLog:
    __slots__ = ("stack", "calls", "total", "self_", "counts", "worker", "top", "sessions")

    def __init__(self, worker: bool):
        self.stack: list[list[float]] = []   # one [child seconds] cell per open span
        self.calls = [0] * len(SPAN_NAMES)
        self.total = [0.0] * len(SPAN_NAMES)
        self.self_ = [0.0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.worker = worker
        self.top: list[tuple[float, float]] = []        # outermost spans of a worker thread
        self.sessions: list[tuple[float, float]] = []   # run_session spans


class _CountingRng:
    """Forwards every attribute of a Generator; each call is one draw span."""

    __slots__ = ("_rng", "_tracer", "_methods")

    def __init__(self, rng: Any, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer
        self._methods: dict[str, Callable] = {}

    def __getattr__(self, name: str) -> Any:
        method = self._methods.get(name)
        if method is not None:
            return method
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr
        method = self._methods[name] = self._tracer.span(attr, "harness.rng")
        return method


class Tracer:
    """Context manager: patch ppsim's entry points, aggregate spans, unpatch."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[Any, str, Any]] = []
        # id(generator) -> (generator, proxy); ppsim reuses one generator per chunk.
        self._proxies: dict[int, tuple[Any, _CountingRng]] = {}

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.current_thread() is not threading.main_thread())
            with self._lock:
                self._logs.append(log)
            self._local.log = log
            return log

    def span(self, fn: Callable, name: str | Callable[[tuple], int],
             before: Callable[[tuple], tuple] | None = None,
             after: Callable[[tuple, Any, _ThreadLog], None] | None = None) -> Callable:
        """Wrap ``fn`` so each call is a span; ``name`` may pick it per call."""
        fixed = _ID[name] if isinstance(name, str) else None
        pick = None if isinstance(name, str) else name
        log_of = self._log

        def traced(*args: Any, **kwargs: Any) -> Any:
            enter = perf_counter()
            log = log_of()
            nid = fixed if pick is None else pick(args)
            if before is not None:
                args = before(args)
            frame = [0.0]
            stack = log.stack
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                log.calls[nid] += 1
                log.total[nid] += dur
                log.self_[nid] += dur - frame[0]
                if nid == _SESSION:
                    log.sessions.append((start, end))
                if stack:
                    # The parent's children cover this span and its bookkeeping.
                    stack[-1][0] += perf_counter() - enter
                elif log.worker:
                    log.top.append((start, end))
            if after is not None:
                after(args, result, log)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` if owner defines it."""
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        q = ppsim.quantum
        for fname, fn in list(vars(q).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != q.__name__:
                continue
            if fname in _SPLIT_BY_WIDTH:
                one, two = _ID[f"quantum.{fname}.1q"], _ID[f"quantum.{fname}.2q"]
                pick = (lambda args, one=one, two=two: one if args[0].n == 1 else two)
                self._patch(q, fname, lambda f, pick=pick: self.span(f, pick))
            else:
                name = f"quantum.{fname}" if fname in _OWN_NAME else "quantum.other"
                self._patch(q, fname, lambda f, name=name: self.span(f, name))

        self._patch(ppsim.optics.Photon, "__init__", lambda f: self.span(f, "optics.photon_init"))
        self._patch(ppsim.optics.Pulse, "__init__", lambda f: self.span(f, "optics.pulse_init"))
        self._patch(ppsim.protocols, "apply_filter",
                    lambda f: self.span(f, "optics.apply_filter", after=_count_absorbed))
        self._patch(ppsim.protocols, "is_visible", lambda f: self.span(f, "optics.is_visible"))
        self._patch(ppsim.adversaries, "split_by_wavelength",
                    lambda f: self.span(f, "optics.split_by_wavelength"))

        self._patch(ppsim.harness, "run_round",
                    lambda f: self.span(f, "protocols.run_round", before=self._count_draws))
        self._patch(ppsim.harness, "make_strategy",
                    lambda f: self.span(f, "harness.make_strategy", after=self._trace_hooks))
        for owner in (ppsim, ppsim.cli):
            self._patch(owner, "run_session",
                        lambda f: self.span(f, "harness.run_session", after=_count_log_records))
        self._patch(ppsim.cli, "main", lambda f: self.span(f, "cli.main"))

        for fname in ("load_scenario", "with_overrides"):
            self._patch(ppsim.cli, fname, lambda f: self.span(f, "scenario.parse"))
        for fname in ("validate", "to_config"):
            self._patch(ppsim.scenario.Scenario, fname, lambda f: self.span(f, "scenario.parse"))

    def _count_draws(self, args: tuple) -> tuple:
        if len(args) < 3:
            return args
        rng = args[2]
        entry = self._proxies.get(id(rng))
        if entry is None or entry[0] is not rng:
            if len(self._proxies) >= _MAX_PROXIES:
                self._proxies.clear()
            entry = self._proxies[id(rng)] = (rng, _CountingRng(rng, self))
        return (*args[:2], entry[1], *args[3:])

    def _trace_hooks(self, args: tuple, adv: Any, log: _ThreadLog) -> None:
        """Wrap the new strategy instance's hooks; the instance dies with its session."""
        for hook in _LEG_HOOKS + ("finalize",):
            method = getattr(adv, hook, None)
            if method is None:
                continue
            after = _count_guess if hook == "finalize" else _count_probes
            try:
                setattr(adv, hook, self.span(method, f"adversaries.{hook}", after=after))
            except AttributeError:  # a strategy with __slots__ stays untraced
                pass

    def summary(self) -> dict[str, Any]:
        """Per-span-name calls, inclusive and self seconds, plus the counters."""
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        self_ = [0.0] * len(SPAN_NAMES)
        counts = dict.fromkeys(COUNTERS, 0)
        worker_top: list[tuple[float, float]] = []
        sessions: list[tuple[float, float]] = []
        for log in self._logs:
            for i in range(len(SPAN_NAMES)):
                calls[i] += log.calls[i]
                total[i] += log.total[i]
                self_[i] += log.self_[i]
            for key in COUNTERS:
                counts[key] += log.counts[key]
            worker_top += log.top
            sessions += log.sessions
        self_[_SESSION] -= _covered(sessions, worker_top)
        spans = {name: {"calls": calls[i], "total_s": total[i], "self_s": max(self_[i], 0.0)}
                 for i, name in enumerate(SPAN_NAMES)}
        return {"spans": spans, "counts": counts}


def _covered(outer: list[tuple[float, float]], inner: list[tuple[float, float]]) -> float:
    """Total length of the union of ``inner`` intervals lying inside ``outer`` ones."""
    covered = 0.0
    inner = sorted(inner)
    j = 0
    for lo, hi in sorted(outer):
        while j < len(inner) and inner[j][0] < lo:
            j += 1
        reach = lo
        while j < len(inner) and inner[j][1] <= hi:
            s, e = inner[j]
            if e > reach:
                covered += e - max(s, reach)
                reach = e
            j += 1
    return covered


def _count_absorbed(args: tuple, result: Any, log: _ThreadLog) -> None:
    log.counts["absorbed"] += result[1]


def _count_probes(args: tuple, result: Any, log: _ThreadLog) -> None:
    added = len(result.photons) - len(args[0].photons)
    if added > 0:
        log.counts["probes_injected"] += added


def _count_guess(args: tuple, result: Any, log: _ThreadLog) -> None:
    if result is not None:
        log.counts["guesses"] += 1
        log.counts["useful_guesses"] += not args[0].blind


def _count_log_records(args: tuple, result: Any, log: _ThreadLog) -> None:
    log.counts["log_records"] += len(result[1])


def ppsim_bindings() -> dict[tuple[str, str], Any]:
    """Every name bound in ppsim's modules and classes, for an unpatched check."""
    bound: dict[tuple[str, str], Any] = {}
    for module in (ppsim, ppsim.adversaries, ppsim.cli, ppsim.harness, ppsim.optics,
                   ppsim.protocols, ppsim.quantum, ppsim.scenario):
        for attr, value in vars(module).items():
            bound[(module.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("ppsim"):
                for cattr, cvalue in vars(value).items():
                    bound[(f"{value.__module__}.{value.__qualname__}", cattr)] = cvalue
    return bound


def changed_bindings(before: dict[tuple[str, str], Any]) -> list[str]:
    after = ppsim_bindings()
    keys = set(before) | set(after)
    return sorted(f"{owner}.{attr}" for owner, attr in keys
                  if before.get((owner, attr)) is not after.get((owner, attr)))
