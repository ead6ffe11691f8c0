"""Tracing + metrics layer tests."""

from __future__ import annotations

import json

import pytest

from repro.core import compile_spec
from repro.hw import tofino_profile
from repro.obs import (
    CounterRegistry,
    NullTracer,
    Span,
    Tracer,
    aggregate,
    format_profile,
    format_span_tree,
    get_tracer,
    to_json,
    use_tracer,
)


class TestSpan:
    def test_times_itself(self):
        with Span("work") as span:
            pass
        assert span.elapsed() >= 0.0
        assert span.end is not None

    def test_counters_accumulate(self):
        span = Span("s")
        span.count("hits")
        span.count("hits", 2)
        assert span.counters == {"hits": 3}

    def test_subtree_totals(self):
        root = Span("root")
        child = Span("child")
        child.count("x", 5)
        root.count("x", 1)
        root.children.append(child)
        assert root.total("x") == 6
        assert root.counter_totals() == {"x": 6}

    def test_dict_round_trip(self):
        root = Span("root", attrs={"k": "v"})
        with root:
            pass
        root.count("c", 7)
        child = Span("child")
        with child:
            pass
        root.children.append(child)
        doc = root.to_dict()
        back = Span.from_dict(doc)
        assert back.name == "root"
        assert back.attrs == {"k": "v"}
        assert back.counters == {"c": 7}
        assert [c.name for c in back.children] == ["child"]
        assert back.elapsed() == doc["seconds"]


class TestTracer:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.count("ticks")
        root = tracer.finish()
        outer = root.children[0]
        assert outer.name == "outer"
        assert outer.children[0].name == "inner"
        assert outer.children[0].counters == {"ticks": 1}
        assert tracer.registry.get("ticks") == 1

    def test_exception_unwinds_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.current is tracer.root
        # Both spans were closed despite the exception.
        outer = tracer.root.children[0]
        assert outer.end is not None
        assert outer.children[0].end is not None

    def test_attach_grafts_worker_span(self):
        worker = Tracer()
        with worker.span("portfolio.arm", label="key<=4"):
            worker.count("sat.solves", 3)
        exported = worker.finish().children[0].to_dict()

        parent = Tracer()
        parent.attach(exported)
        arm = parent.finish().children[0]
        assert arm.name == "portfolio.arm"
        assert arm.attrs["label"] == "key<=4"
        assert parent.registry.get("sat.solves") == 3

    def test_json_export_is_valid(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.count("n", 2)
        doc = json.loads(to_json(tracer))
        assert doc["name"] == "trace"
        assert doc["children"][0]["name"] == "a"
        assert doc["children"][0]["counters"] == {"n": 2}

    def test_profile_and_tree_render(self):
        tracer = Tracer()
        with tracer.span("phase", kind="demo"):
            tracer.count("events", 4)
        profile = format_profile(tracer)
        assert "phase" in profile and "events=4" in profile
        tree = format_span_tree(tracer)
        assert "phase (kind=demo):" in tree
        rows = aggregate(tracer)
        assert rows["phase"]["calls"] == 1


class TestAmbientTracer:
    def test_default_is_null(self):
        assert get_tracer().enabled is False

    def test_use_tracer_scopes_installation(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer().enabled is False

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        with null.span("anything") as span:
            null.count("ignored", 10)
        assert span.elapsed() >= 0.0  # spans still time themselves
        null.attach({"name": "x"})    # and attach is a no-op


class TestCounterRegistry:
    def test_add_get_merge(self):
        a = CounterRegistry()
        a.add("x")
        a.add("x", 2)
        b = CounterRegistry()
        b.add("x", 10)
        b.add("y", 1)
        a.merge(b.snapshot())
        assert a.get("x") == 13
        assert a.get("y") == 1
        assert dict(a.items()) == {"x": 13, "y": 1}

    def test_snapshot_is_detached(self):
        reg = CounterRegistry()
        reg.add("x")
        snap = reg.snapshot()
        reg.add("x")
        assert snap == {"x": 1}
        assert reg.get("x") == 2


class TestCompileTraceConsistency:
    """The acceptance criterion: span-tree SAT totals match CompileStats."""

    def test_trace_totals_match_stats(self, dispatch_spec):
        device = tofino_profile(
            key_limit=8, tcam_limit=64, lookahead_limit=8
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = compile_spec(dispatch_spec, device)
        assert result.ok, result.message
        root = tracer.finish()
        assert root.total("sat.conflicts") == result.stats.sat_conflicts
        assert root.total("sat.decisions") == result.stats.sat_decisions
        assert (
            root.total("sat.propagations") == result.stats.sat_propagations
        )
        assert (
            root.total("sat.learnt_clauses")
            == result.stats.sat_learnt_clauses
        )
        assert root.total("cegis.iterations") == result.stats.cegis_iterations
        assert (
            root.total("cegis.counterexamples")
            == result.stats.counterexamples
        )
        assert root.total("budget.attempts") == result.stats.budgets_tried
        # The registry sees the same totals as the tree.
        assert (
            tracer.registry.get("sat.conflicts")
            == result.stats.sat_conflicts
        )
        # total_seconds is span-derived: it equals the compile span.
        compile_span = root.children[0]
        assert compile_span.name == "compile"
        assert result.stats.total_seconds == pytest.approx(
            compile_span.elapsed(), rel=0.05, abs=0.01
        )
        # The exported JSON is self-consistent with the live objects.
        doc = json.loads(to_json(tracer))
        rebuilt = Span.from_dict(doc)
        assert (
            rebuilt.total("sat.conflicts") == result.stats.sat_conflicts
        )

    def test_untraced_compile_still_fills_stats(self, dispatch_spec):
        device = tofino_profile(
            key_limit=8, tcam_limit=64, lookahead_limit=8
        )
        result = compile_spec(dispatch_spec, device)
        assert result.ok
        assert result.stats.total_seconds > 0
        assert result.stats.synthesis_seconds > 0
        assert result.stats.cegis_iterations >= 1
