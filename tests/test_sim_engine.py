"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import profiler as obs_profiler
from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Resource,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def body():
        yield env.timeout(10)
        done.append(env.now)
        yield env.timeout(5)
        done.append(env.now)

    env.process(body())
    env.run()
    assert done == [10, 15]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def body():
        value = yield env.timeout(1, value="payload")
        seen.append(value)

    env.process(body())
    env.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_time_stops_early():
    env = Environment()
    fired = []

    def body():
        yield env.timeout(100)
        fired.append("late")

    env.process(body())
    env.run(until=50)
    assert fired == []
    assert env.now == 50
    env.run()
    assert fired == ["late"]


def test_run_until_event_returns_value():
    env = Environment()

    def body():
        yield env.timeout(3)
        return 42

    proc = env.process(body())
    assert env.run(until=proc) == 42
    assert env.now == 3


def test_events_at_same_time_fire_in_schedule_order():
    env = Environment()
    order = []

    def make(tag):
        def body():
            yield env.timeout(5)
            order.append(tag)
        return body

    for tag in ["a", "b", "c"]:
        env.process(make(tag)())
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_manual_event():
    env = Environment()
    gate = env.event()
    got = []

    def waiter():
        value = yield gate
        got.append((env.now, value))

    def opener():
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert got == [(7, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield env.process(failing())
        return "handled"

    proc = env.process(waiter())
    assert env.run(until=proc) == "handled"


def test_unhandled_process_exception_raises_from_run():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("unwatched")

    env.process(failing())
    with pytest.raises(ValueError, match="unwatched"):
        env.run()


def test_all_of_collects_values():
    env = Environment()

    def body(delay, value):
        yield env.timeout(delay)
        return value

    def main():
        procs = [env.process(body(d, d * 10)) for d in (3, 1, 2)]
        values = yield AllOf(env, procs)
        return values

    proc = env.process(main())
    assert env.run(until=proc) == [30, 10, 20]
    assert env.now == 3


def test_all_of_empty_fires_immediately():
    env = Environment()

    def main():
        values = yield AllOf(env, [])
        return (env.now, values)

    proc = env.process(main())
    assert env.run(until=proc) == (0.0, [])


def test_any_of_returns_first():
    env = Environment()

    def body(delay, value):
        yield env.timeout(delay)
        return value

    def main():
        procs = [env.process(body(d, f"v{d}")) for d in (5, 2, 9)]
        index, value = yield AnyOf(env, procs)
        return (env.now, index, value)

    proc = env.process(main())
    assert env.run(until=proc) == (2, 1, "v2")


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(target):
        yield env.timeout(4)
        target.interrupt("teardown")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(4, "teardown")]


def test_interrupted_process_ignores_stale_wakeup():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10)
            log.append("slept")
        except Interrupt:
            yield env.timeout(100)
            log.append("resumed-after-interrupt")

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == ["resumed-after-interrupt"]
    assert env.now == 105


def test_interrupting_dead_process_is_noop():
    env = Environment()

    def body():
        yield env.timeout(1)

    proc = env.process(body())
    env.run()
    assert not proc.is_alive
    proc.interrupt()  # must not raise
    env.run()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    def waiter():
        with pytest.raises(SimulationError):
            yield env.process(bad())
        return "caught"

    proc = env.process(waiter())
    assert env.run(until=proc) == "caught"


def test_process_return_value_available_after_run():
    env = Environment()

    def body():
        yield env.timeout(2)
        return "result"

    proc = env.process(body())
    env.run()
    assert proc.value == "result"
    assert not proc.is_alive


def test_waiting_on_already_processed_event():
    env = Environment()
    results = []

    def early():
        yield env.timeout(1)
        return "early"

    def late(target):
        yield env.timeout(10)
        value = yield target
        results.append((env.now, value))

    target = env.process(early())
    env.process(late(target))
    env.run()
    assert results == [(10, "early")]


def test_run_until_event_on_exhausted_queue_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_run_until_time_advances_clock_when_queue_empties_early():
    env = Environment()

    def body():
        yield env.timeout(5)

    env.process(body())
    env.run(until=200)
    # The queue emptied at t=5, but the clock must still land on the
    # requested deadline (so back-to-back run(until=...) calls stay
    # aligned with wall-clock-style schedules).
    assert env.now == 200
    env.run(until=300)
    assert env.now == 300


def test_run_until_time_in_the_past_still_advances_monotonically():
    env = Environment()
    env.run(until=50)
    env.run(until=10)  # earlier deadline: clock must not go backwards
    assert env.now == 50


def test_any_of_empty_list_raises_naming_process():
    env = Environment()

    def body():
        yield AnyOf(env, [])

    env.process(body(), name="chooser")
    with pytest.raises(SimulationError, match="chooser"):
        env.run()


def test_any_of_empty_list_outside_process():
    env = Environment()
    with pytest.raises(SimulationError, match="at least one event"):
        AnyOf(env, [])


def test_all_of_fails_with_first_child_failure():
    env = Environment()
    caught = []

    def failer(delay, message):
        yield env.timeout(delay)
        raise RuntimeError(message)

    def waiter():
        children = [env.process(failer(1, "first")),
                    env.process(failer(2, "second"))]
        try:
            yield AllOf(env, children)
        except RuntimeError as exc:
            caught.append(str(exc))
        # Drain the second failure so it does not surface unhandled.
        try:
            yield children[1]
        except RuntimeError:
            pass

    proc = env.process(waiter())
    env.run(until=proc)
    assert caught == ["first"]


def test_any_of_failure_before_success_propagates():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1)
        raise RuntimeError("boom")

    def slow():
        yield env.timeout(5)
        return "late"

    def waiter():
        try:
            yield AnyOf(env, [env.process(failer()), env.process(slow())])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["boom"]


def test_any_of_late_failure_after_winner_is_defused():
    env = Environment()
    got = []

    def winner():
        yield env.timeout(1)
        return "won"

    def late_failer():
        yield env.timeout(3)
        raise RuntimeError("late boom")

    def waiter():
        index, value = yield AnyOf(
            env, [env.process(winner()), env.process(late_failer())])
        got.append((index, value))

    env.process(waiter())
    env.run()  # must not raise the late failure: AnyOf defuses it
    assert got == [(0, "won")]


def test_interrupt_races_wait_target_at_same_timestamp():
    env = Environment()
    log = []

    def sleeper():
        try:
            value = yield env.timeout(5, value="slept")
            log.append(("value", value, env.now))
        except Interrupt as interrupt:
            log.append(("interrupt", interrupt.cause, env.now))
            # The original timeout still fires after us; it must be
            # swallowed as a stale wakeup, not resume the generator.
            yield env.timeout(10)
            log.append(("resumed", env.now))

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt(cause="now")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    # The t=5 timeout was scheduled before the interrupt, so it wins
    # the tie and the process completes normally without interruption
    # ... unless the interrupt arrives first. Pin the actual order.
    assert log[0] == ("value", "slept", 5)
    assert len(log) == 1


def test_interrupt_before_wait_target_fires():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10, value="slept")
            log.append("slept")
        except Interrupt as interrupt:
            log.append(("interrupt", interrupt.cause, env.now))

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt(cause="early")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupt", "early", 5)]


def test_callback_on_processed_event_runs_through_engine_queue():
    env = Environment()
    order = []

    def body():
        yield env.timeout(1)

    proc = env.process(body())
    env.run()
    assert proc.processed
    # Registering on an already-processed event must defer through the
    # engine queue (preserving engine ordering), not run synchronously.
    proc._add_callback(lambda event: order.append("late-callback"))
    assert order == []
    env.run()
    assert order == ["late-callback"]


def test_callbacks_property_reports_waiting_processes():
    env = Environment()
    gate = env.event()

    def waiter():
        yield gate

    proc = env.process(waiter())
    env.run(until=0)
    callbacks = gate.callbacks
    assert proc._resume in callbacks
    gate.succeed()
    env.run()
    assert gate.callbacks is None  # processed events expose no callbacks


def test_same_timestamp_fifo_across_heap_and_immediate_queues():
    for fastpath in (True, False):
        env = Environment(fastpath=fastpath)
        order = []

        def zero_hop(tag, env=env, order=order):
            yield env.timeout(0)
            order.append(tag)

        def delayed(tag, env=env, order=order):
            yield env.timeout(5)
            order.append(tag)
            yield env.timeout(0)
            order.append(tag + "-zero")

        env.process(delayed("a"))
        env.process(delayed("b"))
        env.process(zero_hop("z"))
        env.run()
        assert order == ["z", "a", "b", "a-zero", "b-zero"], fastpath


def test_events_processed_counters_advance():
    before_total = __import__(
        "repro.sim.engine", fromlist=["x"]).events_processed_total()
    env = Environment()

    def body():
        for _ in range(10):
            yield env.timeout(1)

    env.process(body())
    env.run()
    after_total = __import__(
        "repro.sim.engine", fromlist=["x"]).events_processed_total()
    assert env.events_processed > 0
    assert after_total - before_total == env.events_processed


# -- in-place clock advance (Environment.try_advance, Resource.claim) -------


def sleep(env, delay):
    """A hot-site wait: in place when provably next, else a timeout."""
    if not env.try_advance(delay):
        yield env.timeout(delay)


def test_inline_advance_fires_when_provably_next():
    env = Environment()
    advanced = []

    def body():
        yield env.timeout(1)
        advanced.append(env.try_advance(4))
        advanced.append(env.now)

    env.process(body())
    env.run()
    assert advanced == [True, 5]
    # Counted like the timeout it replaces: bootstrap, timeout, the
    # in-place advance, process exit.
    assert env.events_processed == 4
    assert env.try_advance(1) is False  # outside run()


def test_inline_advance_lets_earlier_queued_same_time_entry_fire_first():
    env = Environment()
    log = []

    def early():
        yield env.timeout(10)
        log.append(("early", env.now))

    def sleeper():
        yield env.timeout(5)
        yield from sleep(env, 5)  # due at 10, like early's queued timeout
        log.append(("sleeper", env.now))

    env.process(early())
    env.process(sleeper())
    env.run()
    assert log == [("early", 10), ("sleeper", 10)]


def test_pending_immediate_item_blocks_inline_advance():
    env = Environment()
    signal = env.event()
    seen = []

    def waiter():
        yield signal
        seen.append(env.now)

    def trigger():
        signal.succeed()
        yield from sleep(env, 5)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [0.0]
    assert env.now == 5


def test_second_waiter_of_multi_waiter_event_resumes_at_original_time():
    env = Environment()
    signal = env.event()
    log = []

    def first():
        yield signal
        yield from sleep(env, 5)
        log.append(("first", env.now))

    def second():
        yield signal
        log.append(("second", env.now))

    def trigger():
        yield env.timeout(1)
        signal.succeed()
        yield env.timeout(100)  # stays alive: no exit event is pending

    env.process(first())
    env.process(second())
    env.process(trigger())
    env.run()
    assert log == [("second", 1), ("first", 6)]


def test_run_until_time_never_advances_in_place_past_the_bound():
    env = Environment()
    log = []

    def body():
        yield env.timeout(5)
        yield from sleep(env, 10)
        log.append(env.now)

    env.process(body())
    env.run(until=8)
    assert env.now == 8
    assert log == []
    env.run()
    assert log == [15]


def test_run_until_event_stops_right_after_its_target():
    env = Environment()
    target = env.event()
    log = []

    def waiter():
        yield target
        yield from sleep(env, 10)
        log.append(env.now)

    def trigger():
        yield env.timeout(1)
        target.succeed()
        yield env.timeout(100)  # stays alive: no exit event is pending

    env.process(waiter())
    env.process(trigger())
    env.run(until=target)
    assert env.now == 1
    assert log == []
    env.run()
    assert log == [11]


def test_profiled_run_counts_every_event_through_the_profiler():
    def ticker(env, log):
        for _ in range(5):
            yield from sleep(env, 10.0)
            log.append(env.now)

    plain = Environment()
    plain_log = []
    plain.process(ticker(plain, plain_log))
    plain.run()

    profiler = obs_profiler.install()
    try:
        env = Environment()
        log = []
        env.process(ticker(env, log))
        env.run()
    finally:
        obs_profiler.uninstall()
    assert log == plain_log
    assert env.events_processed == plain.events_processed
    assert profiler.total_events == env.events_processed


@pytest.mark.parametrize("mode", ["fast", "slow", "profiled"])
def test_run_until_processed_event_returns_its_outcome_at_once(mode):
    profiler = obs_profiler.install() if mode == "profiled" else None
    try:
        env = Environment(fastpath=mode != "slow")
        done = env.event()
        failed = env.event()
        error = ValueError("boom")

        def background():
            yield env.timeout(50)

        def catcher():
            with pytest.raises(ValueError):
                yield failed

        env.process(background())
        env.process(catcher())
        env.run(until=done.succeed("value"))
        with pytest.raises(ValueError):
            env.run(until=failed.fail(error))
        processed, now = env.events_processed, env.now
        assert env.run(until=done) == "value"
        with pytest.raises(ValueError) as raised:
            env.run(until=failed)
        assert raised.value is error
        assert (env.events_processed, env.now) == (processed, now)
        env.run()
        assert env.now == 50
    finally:
        if profiler is not None:
            obs_profiler.uninstall()
    if profiler is not None:
        assert profiler.total_events == env.events_processed


def test_slowpath_never_advances_in_place():
    env = Environment(fastpath=False)
    advanced = []

    def body():
        advanced.append(env.try_advance(3))
        yield env.timeout(3)

    env.process(body())
    env.run()
    assert advanced == [False]
    assert env.now == 3


# A random process program: each op is (kind, a, b).  ``sleep`` and
# ``timeout`` wait ``a``; ``hold``/``acquire`` take resource ``a``
# (capacity 1 or 2) for ``b``; ``signal``/``wait`` trigger or wait on
# shared event ``a``, then sleep ``b``; ``interrupt`` interrupts process
# ``a``.
_OPS = st.one_of(
    st.tuples(st.sampled_from(["sleep", "timeout", "interrupt"]),
              st.integers(0, 3), st.just(0)),
    st.tuples(st.sampled_from(["hold", "acquire"]),
              st.integers(0, 1), st.integers(0, 3)),
    st.tuples(st.sampled_from(["signal", "wait"]),
              st.integers(0, 1), st.integers(0, 3)),
)


def _run_program(programs, pauses, fastpath):
    env = Environment(fastpath=fastpath)
    resources = [Resource(env, capacity=1), Resource(env, capacity=2)]
    signals = [env.event() for _ in range(2)]
    procs = []
    log = []

    def body(pid, ops):
        for step, (kind, a, b) in enumerate(ops):
            try:
                if kind == "sleep":
                    yield from sleep(env, a)
                elif kind == "timeout":
                    yield env.timeout(a)
                elif kind == "hold":
                    grant = resources[a].claim()
                    try:
                        if not grant.processed:
                            yield grant
                        yield from sleep(env, b)
                    finally:
                        resources[a].release(grant)
                elif kind == "acquire":
                    yield from resources[a].acquire(b)
                elif kind == "signal":
                    if not signals[a].triggered:
                        signals[a].succeed()
                    yield from sleep(env, b)
                elif kind == "wait":
                    yield signals[a]
                    yield from sleep(env, b)
                elif a < len(procs):
                    procs[a].interrupt(pid)
                log.append((env.now, pid, step))
            except Interrupt:
                log.append((env.now, pid, step, "interrupted"))

    for pid, ops in enumerate(programs):
        procs.append(env.process(body(pid, ops)))
    for kind, value in pauses:
        if kind == "time":
            env.run(until=max(value, env.now))
        elif not signals[value].processed:
            try:
                env.run(until=signals[value])
            except SimulationError:
                log.append((env.now, "exhausted"))
        log.append((env.now, "paused"))
    env.run()
    return log, env.now, env.events_processed


# ``run`` pauses: at a time, or once a shared event is processed.
_PAUSES = st.lists(st.tuples(st.sampled_from(["time", "signal"]),
                             st.integers(0, 1)).map(
    lambda pause: (pause[0], pause[1] * 5 if pause[0] == "time"
                   else pause[1])), max_size=3)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.lists(_OPS, min_size=1, max_size=10),
                min_size=2, max_size=5),
       _PAUSES)
def test_inline_paths_match_slowpath_on_random_programs(programs, pauses):
    fast = _run_program(programs, pauses, fastpath=True)
    slow = _run_program(programs, pauses, fastpath=False)
    profiler = obs_profiler.install()
    try:
        profiled = _run_program(programs, pauses, fastpath=True)
    finally:
        obs_profiler.uninstall()
    assert fast == slow == profiled
    assert profiler.total_events == profiled[2]
