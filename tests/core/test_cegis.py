"""CEGIS machinery: directed test generation and per-budget synthesis."""

from __future__ import annotations

import random

import pytest

from repro.core import CompileOptions, build_skeleton, prepare_spec
from repro.core.cegis import CegisSession, SynthesisTimeout, initial_tests
from repro.core.skeleton import entry_lower_bound
from repro.core.testpool import TestPool as SharedPool
from repro.hw import tofino_profile
from repro.ir import Bits, parse_spec, simulate_spec
from repro.obs import Tracer, use_tracer


def _entry_rows(program):
    return [
        (e.sid, e.pattern.value, e.pattern.mask, e.next_sid)
        for e in program.entries
    ]

TOFINO = tofino_profile(
    key_limit=8, tcam_limit=64, lookahead_limit=8, extract_limit=64
)


def _traced_run(session, **kwargs):
    """One ``session.run`` under its own Tracer: ``(outcome, counters)``,
    or ``(exception, counters)`` when the attempt raised."""
    tracer = Tracer()
    with use_tracer(tracer):
        try:
            outcome = session.run(**kwargs)
        except SynthesisTimeout as exc:
            outcome = exc
    return outcome, tracer.registry


@pytest.fixture
def dispatch():
    return parse_spec(
        """
        header eth  { dst : 4; etherType : 4; }
        header ipv4 { proto : 4; }
        parser P {
            state start {
                extract(eth);
                transition select(eth.etherType) {
                    0x8 : parse_ipv4;
                    default : accept;
                }
            }
            state parse_ipv4 { extract(ipv4); transition accept; }
        }
        """
    )


class TestInitialTests:
    def test_expectations_match_simulator(self, dispatch):
        rng = random.Random(0)
        for bits, expected in initial_tests(dispatch, rng):
            assert simulate_spec(dispatch, bits).same_output(expected)

    def test_covers_every_reachable_rule(self, dispatch):
        rng = random.Random(0)
        tests = initial_tests(dispatch, rng)
        # Some test must reach parse_ipv4 and some must take the default.
        paths = {tuple(expected.path) for _b, expected in tests}
        assert ("start", "parse_ipv4") in paths
        assert ("start",) in paths

    def test_includes_truncated_input(self, dispatch):
        rng = random.Random(0)
        tests = initial_tests(dispatch, rng)
        assert any(expected.outcome == "reject" for _b, expected in tests)

    def test_deduplication(self, dispatch):
        rng = random.Random(0)
        tests = initial_tests(dispatch, rng)
        inputs = [bits for bits, _e in tests]
        assert len(inputs) == len(set(inputs))


class TestEntryLowerBound:
    def test_counts_distinct_destinations(self, dispatch):
        # start -> {parse_ipv4, accept} = 2, parse_ipv4 -> {accept} = 1.
        assert entry_lower_bound(dispatch, TOFINO) == 3

    def test_reject_destinations_free(self):
        spec = parse_spec(
            """
            header h { a : 4; }
            parser P {
                state start {
                    extract(h.a);
                    transition select(h.a) { 1 : accept; default : reject; }
                }
            }
            """
        )
        assert entry_lower_bound(spec, TOFINO) == 1

    def test_bound_is_sound(self, dispatch):
        from repro.core import compile_spec

        result = compile_spec(dispatch, TOFINO)
        assert result.ok
        assert result.num_entries >= entry_lower_bound(dispatch, TOFINO)


class TestSynthesizeForBudget:
    def test_success_at_adequate_budget(self, dispatch):
        synth, _plan = prepare_spec(
            dispatch, pipelined=False, minimize_widths=True, fix_varbits=True
        )
        skeleton = build_skeleton(
            synth, TOFINO, CompileOptions(), num_entries=3, allow_loops=False
        )
        outcome, counters = _traced_run(
            CegisSession(skeleton, random.Random(0))
        )
        assert outcome.feasible and outcome.program is not None
        assert counters.get("cegis.iterations") >= 1

    def test_unsat_below_lower_bound(self, dispatch):
        synth, _plan = prepare_spec(
            dispatch, pipelined=False, minimize_widths=True, fix_varbits=True
        )
        skeleton = build_skeleton(
            synth, TOFINO, CompileOptions(), num_entries=2, allow_loops=False
        )
        outcome = CegisSession(skeleton, random.Random(0)).run()
        assert not outcome.feasible

    def test_timeout_raises(self, dispatch):
        synth, _plan = prepare_spec(
            dispatch, pipelined=False, minimize_widths=True, fix_varbits=True
        )
        skeleton = build_skeleton(
            synth, TOFINO, CompileOptions(), num_entries=3, allow_loops=False
        )
        with pytest.raises(SynthesisTimeout):
            CegisSession(skeleton, random.Random(0)).run(max_seconds=0.0)


class TestCegisSessionWarm:
    """Warm solver paths: an expired attempt is continued, not re-run."""

    def _skeleton(self, dispatch):
        synth, _plan = prepare_spec(
            dispatch, pipelined=False, minimize_widths=True, fix_varbits=True
        )
        return build_skeleton(
            synth, TOFINO, CompileOptions(), num_entries=3, allow_loops=False
        )

    def test_expired_session_resumes_to_the_cold_answer(self, dispatch):
        skeleton = self._skeleton(dispatch)
        session = CegisSession(skeleton, random.Random(0))
        # Attempt 1 expires at its first solve; the interrupted iteration
        # is charged to the attempt that started it.
        expired, first = _traced_run(session, max_seconds=0.0)
        assert isinstance(expired, SynthesisTimeout)
        assert first.get("cegis.iterations") == 1
        assert first.get("sat.solves") == 0   # no solve happened
        # Attempt 2 continues the same session to convergence.
        outcome, second = _traced_run(session, max_seconds=60.0)
        assert outcome.feasible and outcome.program is not None
        cold, cold_counters = _traced_run(
            CegisSession(self._skeleton(dispatch), random.Random(0))
        )
        assert _entry_rows(outcome.program) == _entry_rows(cold.program)
        assert second.get("cegis.iterations") == (
            cold_counters.get("cegis.iterations")
        )

    def test_attempt_outcomes_are_deltas(self, dispatch):
        """Each run() records only its own attempt's work, so the
        attempts of a session add up without double counting."""
        skeleton = self._skeleton(dispatch)
        session = CegisSession(skeleton, random.Random(0))
        _expired, first = _traced_run(session, max_seconds=0.0)
        _outcome, second = _traced_run(session, max_seconds=60.0)
        _cold, cold = _traced_run(
            CegisSession(self._skeleton(dispatch), random.Random(0))
        )
        # The interrupted iteration restarts, so the attempts sum to one
        # extra count — but never to duplicated solver work.
        assert first.get("cegis.iterations") + second.get(
            "cegis.iterations"
        ) == cold.get("cegis.iterations") + 1
        assert first.get("sat.solves") + second.get("sat.solves") == (
            cold.get("sat.solves")
        )
        # The structural + seed encoding happened once, in attempt 1;
        # together the attempts emit exactly the cold run's clauses.
        assert first.get("sat.clauses_added") > 0
        assert first.get("sat.clauses_added") + second.get(
            "sat.clauses_added"
        ) == cold.get("sat.clauses_added")

    def test_iteration_cap_spans_the_whole_session(self, dispatch):
        session = CegisSession(
            self._skeleton(dispatch), random.Random(0), max_iterations=0
        )
        with pytest.raises(SynthesisTimeout, match="did not converge"):
            session.run(max_seconds=60.0)
        # The cap is total across attempts — a later attempt cannot
        # spend iterations a cold run would not have had.
        with pytest.raises(SynthesisTimeout, match="did not converge"):
            session.run(max_seconds=60.0)


class TestPoolReplayInCegis:
    def _skeleton(self, dispatch):
        synth, _plan = prepare_spec(
            dispatch, pipelined=False, minimize_widths=True, fix_varbits=True
        )
        skeleton = build_skeleton(
            synth, TOFINO, CompileOptions(), num_entries=3, allow_loops=False
        )
        return synth, skeleton

    def test_pool_seeds_replace_live_iterations(self, dispatch):
        synth, skeleton = self._skeleton(dispatch)
        pool = SharedPool(synth)
        first, first_counters = _traced_run(CegisSession(
            skeleton,
            random.Random(0),
            directed_tests=False,
            on_counterexample=lambda bits: pool.add(bits),
            pool=pool,
        ))
        assert first.feasible and first.program is not None
        assert len(pool) >= 1           # seed + any counterexamples
        # A second run over the same layout replays the pool up front.
        _synth2, skeleton2 = self._skeleton(dispatch)
        second, second_counters = _traced_run(CegisSession(
            skeleton2, random.Random(0), directed_tests=False, pool=pool
        ))
        assert second.feasible and second.program is not None
        assert second_counters.get("tests.pool_hits") == len(pool)
        assert second_counters.get("cegis.iterations") <= (
            first_counters.get("cegis.iterations")
        )
        # Extra up-front constraints must not cost correctness.
        from repro.core import verify_equivalent

        assert verify_equivalent(synth, second.program) is None

    def test_pool_base_freezes_the_replay_prefix(self, dispatch):
        synth, skeleton = self._skeleton(dispatch)
        pool = SharedPool(synth)
        pool.add(Bits(0x01, 8))
        base = len(pool)
        pool.add(Bits(0x02, 8))   # arrives after the attempt started
        session = CegisSession(
            skeleton, random.Random(0), directed_tests=False,
            pool=pool, pool_base=base,
        )
        outcome, counters = _traced_run(session, max_seconds=60.0)
        assert outcome.feasible
        assert counters.get("tests.pool_hits") == base
