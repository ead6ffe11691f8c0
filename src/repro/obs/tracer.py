"""Structured tracing for the compile pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per unit
of pipeline work (compile → portfolio arm → budget attempt → CEGIS
iteration → SAT solve / verify) — each with wall time, free-form
attributes, and named counters (conflicts, decisions, propagations,
counterexamples, budgets retired, ...).

The ambient tracer is resolved with :func:`get_tracer`; the default is a
:class:`NullTracer` whose spans still measure wall time but record
nothing else, keeping the disabled-path overhead to two clock reads and
one small allocation per span.  A compile always records, under a
private ``Tracer`` when none is installed, because ``CompileStats`` is
read off its ``compile`` span.

Counters live in one place, the span tree: :attr:`Tracer.registry` is a
read-only view of the tree's totals.  Worker processes cannot share a
tracer with their parent.  Instead a worker runs under its own
``Tracer`` and serializes the finished span tree with
:meth:`Span.to_dict`, and the parent grafts it back with
:meth:`Tracer.attach` (see ``core/parallel.py``); the grafted counters
then count in the parent's totals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Union

Number = Union[int, float]


class Span:
    """One timed unit of work; a context manager.

    Spans created by a real :class:`Tracer` are linked into its tree on
    ``__enter__``; free-floating spans (from :class:`NullTracer`) only
    measure wall time.
    """

    __slots__ = ("name", "attrs", "start", "end", "counters", "children",
                 "_tracer", "_seconds")

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs or {}
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.counters: Dict[str, Number] = {}
        self.children: List["Span"] = []
        self._tracer = tracer
        self._seconds: Optional[float] = None  # fixed value for rehydrated spans

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Span":
        self.start = time.monotonic()
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, *_exc) -> bool:
        self.end = time.monotonic()
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- data ------------------------------------------------------------
    def elapsed(self) -> float:
        """Wall seconds; live spans report time-so-far."""
        if self._seconds is not None:
            return self._seconds
        if self.start is None:
            return 0.0
        end = self.end if self.end is not None else time.monotonic()
        return end - self.start

    def count(self, name: str, delta: Number = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def total(self, counter: str) -> Number:
        """Sum of ``counter`` over this span and all descendants."""
        value: Number = self.counters.get(counter, 0)
        for child in self.children:
            value += child.total(counter)
        return value

    def counter_totals(self) -> Dict[str, Number]:
        """All counters summed over the subtree rooted here."""
        totals: Dict[str, Number] = dict(self.counters)
        for child in self.children:
            for key, value in child.counter_totals().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- (de)serialization -----------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.elapsed(), 6),
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.counters:
            doc["counters"] = dict(self.counters)
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Span":
        span = cls(doc.get("name", "?"), attrs=dict(doc.get("attrs", {})))
        span._seconds = float(doc.get("seconds", 0.0))
        span.counters = dict(doc.get("counters", {}))
        span.children = [cls.from_dict(c) for c in doc.get("children", [])]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.elapsed():.4f}s, "
            f"{len(self.children)} child(ren))"
        )


class CounterView:
    """A span tree's counter totals, read live: the ``get`` and
    ``snapshot`` reads of a :class:`~repro.obs.registry.CounterRegistry`
    without a second store to keep in step with the tree."""

    __slots__ = ("_root",)

    def __init__(self, root: Span) -> None:
        self._root = root

    def get(self, name: str, default: Number = 0) -> Number:
        return self._root.counter_totals().get(name, default)

    def snapshot(self) -> Dict[str, Number]:
        """A picklable copy of the totals."""
        return self._root.counter_totals()


class Tracer:
    """Records a span tree whose spans carry the counters."""

    enabled = True

    def __init__(self, name: str = "trace") -> None:
        self.root = Span(name)
        self.root.start = time.monotonic()
        self._stack: List[Span] = [self.root]

    # -- span plumbing ---------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; entering it nests it under the current span."""
        return Span(name, attrs=attrs or None, tracer=self)

    def _push(self, span: Span) -> None:
        self._stack[-1].children.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exits out of order (e.g. an exception unwound through
        # several spans): pop back to just below `span`.
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top is span:
                break

    @property
    def current(self) -> Span:
        return self._stack[-1]

    # -- counters ----------------------------------------------------------
    def count(self, name: str, delta: Number = 1) -> None:
        """Add to the current span's counters."""
        self._stack[-1].count(name, delta)

    @property
    def registry(self) -> CounterView:
        """The whole tree's counter totals, grafted worker spans
        included."""
        return CounterView(self.root)

    # -- worker merge ------------------------------------------------------
    def attach(self, span: Union[Span, Dict[str, Any]]) -> Span:
        """Graft a finished span (or its dict form) under the current span.

        Used to merge span trees exported by ``ProcessPoolExecutor``
        workers back into the parent's trace."""
        if isinstance(span, dict):
            span = Span.from_dict(span)
        self._stack[-1].children.append(span)
        return span

    # -- export ------------------------------------------------------------
    def finish(self) -> Span:
        """Close the root span (idempotent) and return it."""
        if self.root.end is None:
            self.root.end = time.monotonic()
        return self.root

    def to_dict(self) -> Dict[str, Any]:
        return self.finish().to_dict()

    def export_json(self, indent: int = 2) -> str:
        from .export import to_json

        return to_json(self, indent=indent)

    def render_profile(self) -> str:
        from .export import format_profile

        return format_profile(self)


class NullTracer:
    """Default no-op tracer: spans time themselves but nothing is kept."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(name)

    def count(self, name: str, delta: Number = 1) -> None:
        pass

    def attach(self, span: Union[Span, Dict[str, Any]]) -> None:
        pass


_NULL_TRACER = NullTracer()
_current: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "repro_tracer", default=_NULL_TRACER
)


def get_tracer() -> Union[Tracer, NullTracer]:
    """The ambient tracer (a :class:`NullTracer` unless one is installed)."""
    return _current.get()


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    _current.set(tracer if tracer is not None else _NULL_TRACER)


@contextmanager
def use_tracer(
    tracer: Optional[Union[Tracer, NullTracer]]
) -> Iterator[Union[Tracer, NullTracer]]:
    """Install ``tracer`` as the ambient tracer for the dynamic extent."""
    tracer = tracer if tracer is not None else _NULL_TRACER
    token = _current.set(tracer)
    try:
        yield tracer
    finally:
        _current.reset(token)
