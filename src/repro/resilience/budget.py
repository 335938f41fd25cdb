"""Multi-dimension cooperative execution budgets.

:class:`repro.interfaces.Deadline` governs exactly one resource — wall
clock.  Production matching services need to bound more than time: a
runaway query can exhaust memory by materializing millions of embeddings
or by building a huge CS structure, and machine-independent regression
gates are better expressed in *recursive calls* (the paper's §5.3 cost
metric) than in seconds.  :class:`Budget` generalizes ``Deadline`` to a
single governor over three dimensions:

- **time** — wall-clock seconds, polled every ``check_interval`` ticks
  exactly like ``Deadline``;
- **calls** — recursive-call count, checked on *every* tick (an integer
  compare, far cheaper than ``perf_counter``);
- **memory** — an estimate in bytes of the search's dominant allocations
  (candidate-space entries/edges and collected embeddings), charged by
  the enforcement points via :meth:`charge_memory` / :meth:`note_memory`.

A ``Budget`` is duck-compatible with ``Deadline`` (``tick()`` /
``poll()`` / ``expired()``), so every engine that accepts a deadline — the DAF
backtracking engine, the baselines' shared ``ordered_backtrack`` — accepts
a budget unchanged.  On breach, ``tick()`` raises :class:`BudgetExceeded`,
a subclass of :class:`~repro.interfaces.TimeoutSignal`, so existing
timeout handling unwinds the search and the partial result survives; the
matcher then reports ``MatchResult.budget_breach`` with the dimension
name instead of crashing.

The memory dimension is an *estimate*, not an rlimit: pure-Python object
overhead varies by interpreter, so the constants below are calibrated to
CPython's typical 64-bit footprints and documented as approximations.
"""

from __future__ import annotations

import time
from typing import Optional

from ..interfaces import TimeoutSignal

#: Estimated bytes one candidate-space entry costs (list slot + index
#: dict entry + the int objects behind them).
CANDIDATE_BYTES = 120
#: Estimated bytes one materialized CS edge costs (a slot in a tuple of
#: candidate indices).
CS_EDGE_BYTES = 16
#: Estimated fixed overhead of one collected embedding tuple.
EMBEDDING_BASE_BYTES = 56
#: Estimated incremental bytes per vertex of a collected embedding.
EMBEDDING_SLOT_BYTES = 8


def embedding_bytes(num_vertices: int) -> int:
    """Estimated bytes a collected embedding of this arity costs."""
    return EMBEDDING_BASE_BYTES + EMBEDDING_SLOT_BYTES * num_vertices


class BudgetExceeded(TimeoutSignal):
    """Raised by :meth:`Budget.tick` when any dimension is exhausted.

    Subclasses :class:`TimeoutSignal` so every engine's existing timeout
    unwinding path catches it; ``dimension`` records which budget blew
    (``"time"``, ``"calls"`` or ``"memory"``).
    """

    def __init__(self, dimension: str, detail: str = "") -> None:
        super().__init__(detail or f"{dimension} budget exceeded")
        self.dimension = dimension


class Budget:
    """A cooperative multi-dimension governor for one ``match()`` call.

    Single-use: construct immediately before the work it governs (the
    wall clock starts at construction), thread it through the search,
    and read :attr:`breach` afterwards.

    Parameters
    ----------
    time_limit:
        Wall-clock seconds, as :class:`~repro.interfaces.Deadline`.
    max_calls:
        Maximum recursive calls (ticks) before the search is cut off.
    max_memory:
        Estimated allocation ceiling in bytes (see module constants).
    check_interval:
        Ticks between wall-clock polls (calls and memory over-charge are
        checked on every tick/charge — they are cheap int compares).
    """

    __slots__ = (
        "_deadline",
        "_start",
        "max_calls",
        "max_memory",
        "calls",
        "memory",
        "breach",
        "_interval",
        "_countdown",
    )

    def __init__(
        self,
        time_limit: Optional[float] = None,
        max_calls: Optional[int] = None,
        max_memory: Optional[int] = None,
        check_interval: int = 256,
    ) -> None:
        if max_calls is not None and max_calls < 1:
            raise ValueError("max_calls must be >= 1")
        if max_memory is not None and max_memory < 1:
            raise ValueError("max_memory must be >= 1")
        self._start = time.perf_counter()
        self._deadline = None if time_limit is None else self._start + time_limit
        self.max_calls = max_calls
        self.max_memory = max_memory
        self.calls = 0
        self.memory = 0
        self.breach: Optional[str] = None
        self._interval = check_interval
        self._countdown = check_interval

    # -- Deadline-compatible surface ----------------------------------
    def tick(self) -> None:
        """One unit of search work; raises :class:`BudgetExceeded` when
        any dimension is exhausted."""
        self.calls += 1
        if self.max_calls is not None and self.calls > self.max_calls:
            self._blow("calls")
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self._interval
            self.poll()

    def expired(self) -> bool:
        """Non-raising check across every dimension."""
        if self.breach is not None:
            return True
        if self._deadline is not None and time.perf_counter() > self._deadline:
            return True
        if self.max_calls is not None and self.calls > self.max_calls:
            return True
        if self.max_memory is not None and self.memory > self.max_memory:
            return True
        return False

    # -- extended surface ---------------------------------------------
    def poll(self) -> None:
        """Unconditional slow-path check (time + memory); used by
        coarse-grained enforcement points such as CS refinement passes."""
        if self._deadline is not None and time.perf_counter() > self._deadline:
            self._blow("time")
        if self.max_memory is not None and self.memory > self.max_memory:
            self._blow("memory")

    def charge_memory(self, nbytes: int) -> None:
        """Account ``nbytes`` of estimated allocation; raises on breach."""
        self.memory += nbytes
        if self.max_memory is not None and self.memory > self.max_memory:
            self._blow("memory")

    def note_memory(self, nbytes: int) -> None:
        """Record a *level* estimate (e.g. current CS size): the high-water
        mark of noted levels, not a cumulative sum."""
        if nbytes > self.memory:
            self.memory = nbytes
        if self.max_memory is not None and self.memory > self.max_memory:
            self._blow("memory")

    def cap_time(self, seconds: float) -> None:
        """Tighten the wall-clock dimension to at most ``seconds`` from
        now (never loosens an earlier deadline)."""
        candidate = time.perf_counter() + seconds
        if self._deadline is None or candidate < self._deadline:
            self._deadline = candidate

    def remaining_time(self) -> Optional[float]:
        """Seconds left on the wall-clock dimension (``None`` = unbounded)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    def remaining_calls(self) -> Optional[int]:
        if self.max_calls is None:
            return None
        return max(0, self.max_calls - self.calls)

    def _blow(self, dimension: str) -> None:
        self.breach = dimension
        raise BudgetExceeded(dimension)

    def __repr__(self) -> str:
        dims = []
        if self._deadline is not None:
            dims.append(f"time={self._deadline - self._start:.3f}s")
        if self.max_calls is not None:
            dims.append(f"calls={self.calls}/{self.max_calls}")
        if self.max_memory is not None:
            dims.append(f"memory={self.memory}/{self.max_memory}B")
        state = f", breach={self.breach!r}" if self.breach else ""
        return f"Budget({', '.join(dims) or 'unbounded'}{state})"
