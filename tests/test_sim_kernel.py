"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import AllOf, Environment, Event, Interrupt, Process, Timeout


def test_timeout_ordering():
    env = Environment()
    log = []

    def proc(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc("late", 2.0))
    env.process(proc("early", 1.0))
    env.run()
    assert log == [(1.0, "early"), (2.0, "late")]


def test_same_time_events_fire_in_insertion_order():
    env = Environment()
    log = []

    def proc(name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abcd":
        env.process(proc(name))
    env.run()
    assert log == list("abcd")


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value + 1

    result = env.run(until=env.process(parent()))
    assert result == 43


def test_event_succeed_payload():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    def trigger():
        yield env.timeout(3.0)
        gate.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == ["payload"]
    assert gate.ok and gate.value == "payload"


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_value_before_trigger_is_error():
    env = Environment()
    gate = env.event()
    with pytest.raises(SimulationError):
        _ = gate.value
    with pytest.raises(SimulationError):
        _ = gate.ok


def test_all_of_collects_values_in_order():
    env = Environment()

    def child(delay, value):
        yield env.timeout(delay)
        return value

    processes = [env.process(child(d, v)) for d, v in ((3, "a"), (1, "b"), (2, "c"))]
    result = env.run(until=env.all_of(processes))
    assert result == ["a", "b", "c"]
    assert env.now == 3.0


def test_all_of_empty_fires_immediately():
    env = Environment()
    event = env.all_of([])
    env.run()
    assert event.processed and event.value == []


def test_all_of_fails_on_child_failure():
    env = Environment()
    good = env.timeout(1.0)
    bad = env.event()

    def trigger():
        yield env.timeout(0.5)
        bad.fail(ValueError("child died"))

    env.process(trigger())
    combined = env.all_of([good, bad])
    with pytest.raises(ValueError):
        env.run(until=combined)


def test_interrupt_is_catchable():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    def interrupter(target):
        yield env.timeout(2.0)
        target.interrupt("reason")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupted", 2.0, "reason")]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(0.1)

    process = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_run_until_time_advances_clock():
    env = Environment()
    env.process(iter_timeouts(env, [1.0, 1.0, 1.0]))
    env.run(until=1.5)
    assert env.now == 1.5


def iter_timeouts(env, delays):
    for delay in delays:
        yield env.timeout(delay)


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_yielding_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="must yield Event"):
        env.run()


def test_waiting_on_already_processed_event():
    env = Environment()
    early = env.timeout(1.0)
    log = []

    def late_waiter():
        yield env.timeout(5.0)
        yield early  # already fired long ago
        log.append(env.now)

    env.process(late_waiter())
    env.run()
    assert log == [5.0]


def test_peek_and_step():
    env = Environment()
    env.timeout(2.5)
    assert env.peek() == 2.5
    env.step()
    assert env.now == 2.5
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_two_processes_communicate_via_events():
    env = Environment()
    mailbox = []
    delivered = env.event()

    def producer():
        yield env.timeout(1.0)
        mailbox.append("message")
        delivered.succeed()

    def consumer():
        yield delivered
        mailbox.append("consumed at %g" % env.now)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert mailbox == ["message", "consumed at 1"]


def test_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    process = env.process(proc())
    assert process.is_alive
    env.run()
    assert not process.is_alive


# -- deferred Timeout triggering ---------------------------------------------


def test_timeout_not_triggered_before_fire_time():
    env = Environment()
    timeout = env.timeout(5.0, value="late")
    assert not timeout.triggered
    with pytest.raises(SimulationError):
        timeout.value
    env.run(until=1.0)
    assert not timeout.triggered
    env.run(until=5.0)
    assert timeout.triggered and timeout.processed
    assert timeout.ok
    assert timeout.value == "late"


def test_timeout_cannot_be_triggered_externally():
    env = Environment()
    timeout = env.timeout(1.0)
    with pytest.raises(SimulationError):
        timeout.succeed()
    with pytest.raises(SimulationError):
        timeout.fail(RuntimeError("boom"))
    env.run()
    assert timeout.ok


def test_timeout_observed_pending_then_fired_by_process():
    env = Environment()
    observations = []

    def observer(watched):
        observations.append(watched.triggered)
        yield env.timeout(3.0)
        observations.append((watched.triggered, watched.value))

    watched = env.timeout(2.0, value=7)
    env.process(observer(watched))
    env.run()
    assert observations == [False, (True, 7)]


# -- run(until=t) clock semantics --------------------------------------------


def test_run_until_advances_clock_to_deadline_without_events():
    env = Environment()
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_deadline_beyond_last_event():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(1.5)
        log.append(env.now)

    env.process(proc())
    env.run(until=10.0)
    assert log == [1.5]
    assert env.now == 10.0


def test_run_until_does_not_fire_later_events():
    env = Environment()
    late = env.timeout(5.0)
    env.run(until=2.0)
    assert env.now == 2.0
    assert not late.triggered
    env.run()
    assert late.triggered


# -- interrupting a process waiting on an already-triggered event -------------


def test_interrupt_while_waiting_on_processed_event():
    env = Environment()
    log = []
    early = env.event()
    early.succeed("early-value")

    def waiter():
        yield env.timeout(1.0)
        try:
            value = yield early  # processed long ago; bridge event pending
            log.append(("value", value))
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause))
        yield env.timeout(1.0)
        log.append(("done", env.now))

    process = env.process(waiter())

    def interrupter():
        yield env.timeout(1.0)
        process.interrupt("now")

    env.process(interrupter())
    env.run()
    # Exactly one of the two wakeups resumed the generator at the yield.
    assert log == [("interrupted", "now"), ("done", 2.0)]


def test_interrupt_on_processed_event_no_double_resume():
    env = Environment()
    resumes = []
    early = env.event()
    early.succeed()

    def waiter():
        yield env.timeout(1.0)
        try:
            yield early
        except Interrupt:
            pass
        resumes.append(env.now)
        yield env.timeout(3.0)
        resumes.append(env.now)

    process = env.process(waiter())

    def interrupter():
        yield env.timeout(1.0)
        process.interrupt()

    env.process(interrupter())
    env.run()
    assert resumes == [1.0, 4.0]


# -- AllOf over processed / failed children -----------------------------------


def test_all_of_mix_of_processed_and_pending_children():
    env = Environment()
    done = env.event()
    done.succeed("first")
    env.run()  # process `done` fully
    assert done.processed
    pending = env.timeout(2.0, value="second")
    combined = env.all_of([done, pending])
    result = env.run(until=combined)
    assert result == ["first", "second"]


def test_all_of_with_failed_child_fails():
    env = Environment()
    ok = env.event()
    ok.succeed()
    bad = env.event()
    bad.fail(RuntimeError("child failed"))
    env.run()  # both children processed
    combined = env.all_of([ok, bad])
    with pytest.raises(RuntimeError, match="child failed"):
        env.run(until=combined)


def test_all_of_processed_failure_seen_by_waiting_process():
    env = Environment()
    log = []
    bad = env.event()
    bad.fail(ValueError("poisoned"))
    env.run()

    def waiter():
        good = env.timeout(1.0)
        try:
            yield env.all_of([good, bad])
        except ValueError as exc:
            log.append(str(exc))

    env.process(waiter())
    env.run()
    assert log == ["poisoned"]


# -- run_until: bounded wait (the §IV-F watchdog primitive) -------------------


def test_run_until_event_fires_before_deadline():
    env = Environment()
    ev = env.timeout(1.0, value="done")
    assert env.run_until(ev, deadline=5.0) is True
    assert env.now == 1.0
    assert ev.processed


def test_run_until_deadline_advances_clock_to_deadline():
    env = Environment()
    ev = env.timeout(10.0)
    assert env.run_until(ev, deadline=5.0) is False
    assert env.now == 5.0
    assert not ev.processed


def test_run_until_queue_drain_keeps_clock_at_stall_instant():
    env = Environment()
    never = env.event()  # nothing will ever trigger this
    env.timeout(2.0)
    # The queue drains at t=2: the simulation is stalled, and the clock must
    # NOT warp to the (far) deadline — recovery acts at the stall instant.
    assert env.run_until(never, deadline=100.0) is False
    assert env.now == 2.0


def test_run_until_already_processed_event_returns_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed()
    env.run()
    assert ev.processed
    assert env.run_until(ev, deadline=0.0) is True
    assert env.now == 0.0


# -- bucketed-queue semantics (same-timestamp order, mid-drain scheduling) ---


def test_zero_delay_events_scheduled_mid_drain_fire_in_same_pass():
    # A callback appending to the *current* time bucket must be drained in
    # insertion order before the clock moves on — the bucketed queue's
    # replacement for the old (time, serial) heap tiebreaker.
    env = Environment()
    log = []

    def child(name):
        # The process-init event lands in the *currently draining* bucket.
        log.append((env.now, name))
        yield env.timeout(1.0)
        log.append((env.now, f"{name}-later"))

    def parent():
        yield env.timeout(1.0)
        log.append((env.now, "parent"))
        env.process(child("child"))

    env.process(parent())
    env.run()
    assert log == [(1.0, "parent"), (1.0, "child"), (2.0, "child-later")]


def test_interleaved_bursts_keep_per_time_insertion_order():
    env = Environment()
    log = []

    def proc(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    # Schedule out of time order, several events per timestamp.
    for name, delay in [("c1", 3.0), ("a1", 1.0), ("c2", 3.0),
                        ("b1", 2.0), ("a2", 1.0), ("b2", 2.0)]:
        env.process(proc(name, delay))
    env.run()
    assert log == [(1.0, "a1"), (1.0, "a2"), (2.0, "b1"),
                   (2.0, "b2"), (3.0, "c1"), (3.0, "c2")]


def test_callback_exception_mid_bucket_leaves_queue_consistent():
    env = Environment()
    log = []

    def ok(name):
        yield env.timeout(1.0)
        log.append(name)

    def boom():
        yield env.timeout(1.0)
        raise RuntimeError("mid-bucket failure")

    env.process(ok("before"))
    env.process(boom())
    env.process(ok("after"))
    with pytest.raises(RuntimeError, match="mid-bucket failure"):
        env.run()
    # The failed event was consumed; the rest of the bucket still fires.
    env.run()
    assert log == ["before", "after"]
    assert env.peek() == float("inf")


def test_step_and_run_drain_buckets_identically():
    def build():
        env = Environment()
        log = []

        def proc(name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))

        for name, delay in [("x", 1.0), ("y", 1.0), ("z", 2.0)]:
            env.process(proc(name, delay))
        return env, log

    run_env, run_log = build()
    run_env.run()

    step_env, step_log = build()
    while step_env.peek() != float("inf"):
        step_env.step()
    assert step_log == run_log
