"""In-memory span tracer for the traced run.

The tracer wraps public functions of the ``repro`` layers from the
benchmark's side (class attributes, module globals and the filter
registry), records one start and one end event per call into per-thread
buffers, and only does arithmetic on them when the run ends.  It is
installed only for the traced run; end-to-end metrics are always measured
with no wrapper in place.

Self time is computed by a sweep over the merged event stream, restricted
to the trace windows (the timed calls and the set-up):

* at every instant each thread's innermost open span is that thread's
  *leaf*;
* an instant with ``k`` leaves is split ``1/k`` to each of them, because
  under the interpreter lock at most one thread runs Python at a time;
* an instant with no leaf is ``unattributed``.

So the self times plus ``unattributed_s`` add up to the traced wall time
by construction; :meth:`Tracer.summary` still checks the sum, which
catches a span that was never closed or a window that was never counted.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import numpy as np

_SPAN_END = -1
_WINDOW_CLOSE = -2
_WINDOW_OPEN = -3  # window of phase i opens with code _WINDOW_OPEN - i
PHASES = ("setup", "measured")


class _ThreadLog:
    """One thread's event buffer and its per-name item sums."""

    __slots__ = ("times", "codes", "items")

    def __init__(self) -> None:
        self.times = array("d")
        self.codes = array("i")
        self.items: dict[str, float] = defaultdict(float)


class Tracer:
    """Wraps layer functions and attributes wall time to them."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []
        self._window_log = _ThreadLog()
        self._setup_items: dict[str, float] = {}

    # -- recording ----------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def window(self, phase: str = "measured") -> "_Window":
        """Context manager: trace everything inside as one window of
        ``phase`` (one of :data:`PHASES`)."""
        return _Window(self, PHASES.index(phase))

    def end_setup(self) -> None:
        """Mark the end of set-up: :meth:`items` counts only what follows."""
        self._setup_items = self._merged_items()

    def add(self, name: str, amount: float) -> None:
        """Add ``amount`` to the per-name sum ``name`` (thread-safe)."""
        self._log().items[name] += amount

    def wrapper(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        span: bool = True,
        before: Callable[..., dict[str, float]] | None = None,
        after: Callable[..., dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span (and optional item sums).

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return amounts to add to named sums.  Every call adds 1 to
        ``<name>.calls``; a span also adds its inclusive duration to
        ``<name>.total_s``.  ``span=False`` only counts.
        """
        code = self._code(name) if span else None
        tracer = self
        calls, total = name + ".calls", name + ".total_s"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            log = tracer._log()
            log.items[calls] += 1
            if before is not None:
                for key, amount in before(*args, **kwargs).items():
                    log.items[key] += amount
            if code is None:
                result = fn(*args, **kwargs)
            else:
                start = perf_counter()
                log.times.append(start)
                log.codes.append(code)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    log.times.append(end)
                    log.codes.append(_SPAN_END)
                    log.items[total] += end - start
            if after is not None:
                for key, amount in after(result, *args, **kwargs).items():
                    log.items[key] += amount
            return result

        return traced

    # -- installing ---------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str, **kw: Any) -> None:
        """Wrap ``cls.attr`` (plain function or classmethod) in place."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrapper(original.__func__, name, **kw)
            )
        else:
            replacement = self.wrapper(original, name, **kw)
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, module: Any, attr: str, name: str, **kw: Any) -> None:
        """Wrap a module-level function in its module *and* in every loaded
        ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        replacement = self.wrapper(original, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append(
                        lambda m=mod, k=key: setattr(m, k, original)
                    )

    def on_uninstall(self, undo: Callable[[], None]) -> None:
        """Run ``undo`` when the tracer is uninstalled (for patches made
        outside :meth:`patch_method` / :meth:`patch_function`)."""
        self._undo.append(undo)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            self._undo.pop()()

    # -- summarising --------------------------------------------------
    def _merged_items(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for log in [*self._logs, self._window_log]:
            for key, amount in log.items.items():
                total[key] += amount
        return dict(total)

    def items(self) -> dict[str, float]:
        """Item sums (calls, keys, bytes...) merged over threads, counted
        from the end of set-up."""
        return {
            key: amount - self._setup_items.get(key, 0.0)
            for key, amount in self._merged_items().items()
        }

    def summary(self) -> dict[str, Any]:
        """Self seconds per span name and phase, ``unattributed_s`` and
        ``wall_s`` (totals over both phases), and the reconciliation."""
        logs = [self._window_log, *self._logs]
        times = np.concatenate(
            [np.frombuffer(log.times, dtype=np.float64) for log in logs]
        )
        codes = np.concatenate(
            [np.frombuffer(log.codes, dtype=np.int32) for log in logs]
        )
        threads = np.concatenate(
            [np.full(len(log.times), i, dtype=np.int32) for i, log in enumerate(logs)]
        )
        # Per-thread streams are already in time order; a stable sort keeps
        # each thread's own order for events that share a timestamp.
        order = np.argsort(times, kind="stable")
        stacks: list[list[int]] = [[] for _ in logs]
        busy: set[int] = set()
        self_s = [[0.0] * len(self.names) for _ in PHASES]
        unattributed = [0.0] * len(PHASES)
        wall = [0.0] * len(PHASES)
        phase = None
        last = 0.0
        for t, code, th in zip(
            times[order].tolist(), codes[order].tolist(), threads[order].tolist(),
            strict=True,
        ):
            if phase is not None:
                dt = t - last
                wall[phase] += dt
                if busy:
                    share = dt / len(busy)
                    for b in busy:
                        self_s[phase][stacks[b][-1]] += share
                else:
                    unattributed[phase] += dt
            last = t
            if code >= 0:
                stacks[th].append(code)
                busy.add(th)
            elif code == _SPAN_END:
                stacks[th].pop()
                if not stacks[th]:
                    busy.discard(th)
            elif code == _WINDOW_CLOSE:
                phase = None
            else:
                phase = _WINDOW_OPEN - code
        by_phase = {
            p: dict(zip(self.names, self_s[i], strict=True)) for i, p in enumerate(PHASES)
        }
        total = {name: sum(by_phase[p][name] for p in PHASES) for name in self.names}
        wall_s, unattributed_s = sum(wall), sum(unattributed)
        return {
            "self_s": total,
            "self_s_by_phase": by_phase,
            "unattributed_s": unattributed_s,
            "wall_s": wall_s,
            "wall_s_by_phase": dict(zip(PHASES, wall, strict=True)),
            "spans": int(np.count_nonzero(codes >= 0)),
            "reconciled": (
                abs(sum(total.values()) + unattributed_s - wall_s) <= 1e-9 * max(wall_s, 1.0)
                and not any(stacks)
                and phase is None
            ),
        }

    def dump(self, path: Any) -> None:
        """Write every recorded event to ``path`` (``.npz``)."""
        arrays: dict[str, Any] = {"names": np.array(self.names, dtype=str)}
        for i, log in enumerate([self._window_log, *self._logs]):
            arrays[f"t{i}"] = np.frombuffer(log.times, dtype=np.float64)
            arrays[f"c{i}"] = np.frombuffer(log.codes, dtype=np.int32)
        np.savez_compressed(path, **arrays)


class _Window:
    def __init__(self, tracer: Tracer, phase: int) -> None:
        self.tracer = tracer
        self.phase = phase

    def __enter__(self) -> None:
        log = self.tracer._window_log
        log.times.append(perf_counter())
        log.codes.append(_WINDOW_OPEN - self.phase)
        self.tracer.enabled = True

    def __exit__(self, *exc: Any) -> None:
        self.tracer.enabled = False
        log = self.tracer._window_log
        log.times.append(perf_counter())
        log.codes.append(_WINDOW_CLOSE)
