"""Virtual-time event loop semantics."""

import pytest

from repro.sim.engine import Actor, EventLoop, SimulationError, StepOutcome


class Stepper(Actor):
    """Advances its clock by `step_ns` for `n` steps, recording order."""

    def __init__(self, actor_id, step_ns, n, log):
        super().__init__(actor_id)
        self.step_ns = step_ns
        self.n = n
        self.log = log

    def step(self, loop):
        self.log.append((self.actor_id, self.clock))
        self.n -= 1
        if self.n <= 0:
            return StepOutcome.FINISHED
        self.clock += self.step_ns
        return StepOutcome.RESCHEDULE


def test_min_clock_first_ordering():
    log = []
    loop = EventLoop()
    loop.add(Stepper(0, 10.0, 5, log))
    loop.add(Stepper(1, 25.0, 3, log))
    loop.run()
    times = [t for _, t in log]
    assert times == sorted(times)


def test_tie_break_deterministic():
    log = []
    loop = EventLoop()
    loop.add(Stepper(1, 10.0, 2, log))
    loop.add(Stepper(0, 10.0, 2, log))
    loop.run()
    assert log[0][0] == 0  # lower actor id first on equal clocks


def test_final_time_is_max_clock():
    loop = EventLoop()
    loop.add(Stepper(0, 7.0, 4, []))
    assert loop.run() == pytest.approx(21.0)


class Parker(Actor):
    def step(self, loop):
        return StepOutcome.PARKED


def test_deadlock_detected():
    loop = EventLoop()
    loop.add(Parker(0))
    with pytest.raises(SimulationError, match="deadlock"):
        loop.run()


def test_deadlock_error_names_parked_actors():
    loop = EventLoop()
    loop.add(Parker(3))
    loop.add(Parker(11))
    loop.add(Stepper(5, 10.0, 2, []))  # finishes fine; must not be listed
    with pytest.raises(SimulationError, match=r"parked actor ids: \[3, 11\]"):
        loop.run()


def test_wake_advances_clock():
    class WakeOnce(Actor):
        def __init__(self):
            super().__init__(0)
            self.phase = 0

        def step(self, loop):
            if self.phase == 0:
                self.phase = 1
                return StepOutcome.PARKED
            return StepOutcome.FINISHED

    class Waker(Actor):
        def __init__(self, target):
            super().__init__(1)
            self.target = target

        def step(self, loop):
            loop.wake(self.target, at_time=500.0)
            return StepOutcome.FINISHED

    sleeper = WakeOnce()
    loop = EventLoop()
    loop.add(sleeper)
    loop.add(Waker(sleeper))
    loop.run()
    assert sleeper.clock == 500.0


def test_wake_finished_actor_rejected():
    loop = EventLoop()
    a = Stepper(0, 1.0, 1, [])
    loop.add(a)
    loop.run()
    with pytest.raises(SimulationError):
        loop.wake(a)


def test_max_steps_livelock_guard():
    loop = EventLoop()
    loop.max_steps = 10
    loop.add(Stepper(0, 1.0, 1000, []))
    with pytest.raises(SimulationError, match="max_steps"):
        loop.run()


# --- error paths: message content and the cohort-drain variants -----------


class BackwardsStepper(Actor):
    """Advances once, then moves its clock backwards past ``now``."""

    def __init__(self, actor_id, jump_back):
        super().__init__(actor_id)
        self.jump_back = jump_back
        self.phase = 0

    def step(self, loop):
        if self.phase == 0:
            self.phase = 1
            self.clock += 100.0
            return StepOutcome.RESCHEDULE
        self.clock -= self.jump_back
        return StepOutcome.RESCHEDULE


def test_backwards_time_raises():
    loop = EventLoop()
    loop.add(BackwardsStepper(0, 250.0))
    with pytest.raises(SimulationError, match="virtual time went backwards"):
        loop.run()


def test_backwards_time_raises_inside_wide_cohort():
    # Two actors share every clock, so the faulty re-pop happens on the
    # cohort-drain path, not the singleton fast path.
    loop = EventLoop()
    loop.add(BackwardsStepper(0, 250.0))
    loop.add(BackwardsStepper(1, 250.0))
    with pytest.raises(SimulationError, match="virtual time went backwards"):
        loop.run()


def test_max_steps_message_names_limit_live_and_now():
    loop = EventLoop()
    loop.max_steps = 7
    loop.add(Stepper(0, 10.0, 1000, []))
    with pytest.raises(
        SimulationError,
        match=r"exceeded max_steps=7; likely a livelock \(live=1, now=\d+ ns\)",
    ):
        loop.run()


def test_max_steps_enforced_inside_wide_cohort():
    # 4 lockstep actors: every drain is a 4-wide cohort, and the step
    # budget must still bind inside the drain loop.
    loop = EventLoop()
    loop.max_steps = 9
    for i in range(4):
        loop.add(Stepper(i, 10.0, 1000, []))
    with pytest.raises(SimulationError, match="exceeded max_steps=9"):
        loop.run()
    assert loop.steps == 10  # raised on the first step past the budget


def test_deadlock_message_truncates_parked_ids_at_16():
    loop = EventLoop()
    for i in range(20):
        loop.add(Parker(i))
    loop.add(Stepper(99, 1.0, 2, []))  # finishes; must not be listed
    with pytest.raises(SimulationError) as err:
        loop.run()
    msg = str(err.value)
    assert "deadlock: 20 actor(s) parked" in msg
    ids = ", ".join(str(i) for i in range(16))
    assert f"[{ids}, ... (4 more)]" in msg
    assert "16" not in msg.split("...")[0]  # 17th id truncated away
    assert "99" not in msg  # the finished actor is never listed


def test_cohort_counters_track_wide_drains():
    loop = EventLoop()
    for i in range(8):
        loop.add(Stepper(i, 10.0, 3, []))
    loop.run()
    # All 8 actors share every clock: 3 cohorts of width 8.
    assert loop.cohorts == 3
    assert loop.cohort_actors == 24
    assert loop.heap_pops == loop.heap_pushes
