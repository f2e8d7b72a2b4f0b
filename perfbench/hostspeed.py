"""Reference-speed clock, so that times from a shared, noisy host compare.

On the shared 2-core host the baseline was measured on, the same
pure-Python work took from 1x to 2x as long from one half second to the
next, switching between a fast and a slow state.  The benchmark therefore
interleaves a fixed kernel with the workload: a closure-dispatch loop over
a slotted state object, the same kind of work the `pfo` interpreter does,
independent of `pfo`.  A profiling timer interrupts the process every
`INTERVAL_S` of CPU time and runs one kernel slice; the CPU time until the
next slice is counted at `REF_SLICE_S / t` reference seconds per second,
where `t` is how long that slice took, i.e. as it would read on a host
where the slice takes `REF_SLICE_S`.  The slices themselves are left out,
so every duration the benchmark takes as a difference of `HostSpeed.now`
is scaled piecewise by the host speed of the moment it was spent in.

Time in the cyclic garbage collector is the exception: it is counted as
measured.  Walking the heap is bound by memory, not by the interpreter's
dispatch, and it does not follow the kernel: timing identical full
collections between slices, the collections varied by 9 % and the slices
by 23 %, and collections scaled by the slices varied by 18 %.

The clock underneath is the CPU time of the calling thread (the benchmark
runs one): while a profiling timer is armed, Linux reads the process CPU
clock from a total it updates only at scheduler ticks, so a 1 ms slice
timed with `time.process_time` often reads 0.
"""

from __future__ import annotations

import gc
import signal
import time

# nominal reference slice; on the baseline host (CPython 3.11.7) a slice
# took 0.5-1.1 ms depending on the load from other tenants
REF_SLICE_S = 0.8e-3
INTERVAL_S = 0.01  # CPU time between slices


class _State:
    __slots__ = ("regs", "mem", "steps")


def kernel_slice(rounds: int = 400) -> int:
    st = _State()
    st.regs = [0] * 16
    st.mem = {}
    st.steps = 0

    def add(st, a=1, b=2, d=3):
        st.regs[d] = (st.regs[a] + st.regs[b]) & 0xFFFF
        st.steps += 1

    def load(st, a=4, d=5):
        st.regs[d] = st.mem.get(st.regs[a] & 255, 0)
        st.steps += 1

    def store(st, a=3, s=5):
        st.mem[st.regs[a] & 255] = st.regs[s] ^ st.steps
        st.steps += 1

    def inc(st, d=1):
        st.regs[d] += 1
        st.steps += 1

    prog = (add, load, store, inc, add, store, load, inc)
    for _ in range(rounds):
        for f in prog:
            f(st)
    return st.steps


class HostSpeed:
    """CPU-time clock in reference seconds, rescaled at every kernel slice."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.slices = 0
        self.kernel_s = 0.0
        self._busy = False
        self._scale = 1.0  # the scale a collection interrupted
        # (reference seconds at `mark`, raw clock at `mark`, scale after it),
        # replaced as a whole so that `now` never sees half an update
        self._state = (0.0, clock(), 1.0)
        self.sample()

    def sample(self) -> None:
        """Run one kernel slice and rescale from it."""
        if self._busy:  # a timer signal that arrived during a slice
            return
        self._busy = True
        ref, mark, scale = self._state
        t = self.clock()
        collecting = gc.isenabled()
        gc.disable()  # no collection the workload owes runs inside a slice
        kernel_slice()
        end = self.clock()
        self.kernel_s += end - t
        self.slices += 1
        self._state = (ref + (t - mark) * scale, end, REF_SLICE_S / (end - t))
        if collecting:
            gc.enable()
        self._busy = False

    def _on_gc(self, phase: str, info: dict) -> None:
        """`gc.callbacks` hook: count the collection's time unscaled."""
        busy, self._busy = self._busy, True  # no slice inside the update
        ref, mark, scale = self._state
        t = self.clock()
        if phase == "start":
            self._scale = scale
            self._state = (ref + (t - mark) * scale, t, 1.0)
        else:
            self._state = (ref + (t - mark), t, self._scale)
        self._busy = busy

    def now(self) -> float:
        """Reference seconds of CPU time spent outside kernel slices so far."""
        while True:
            state = self._state
            t = self.clock()
            if state is self._state:  # no slice ran between the two reads
                return state[0] + (t - state[1]) * state[2]

    def start(self, interval_s: float = INTERVAL_S) -> None:
        """Run a slice every `interval_s` of process CPU time from now on."""
        gc.callbacks.append(self._on_gc)
        signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        gc.callbacks.remove(self._on_gc)

    @property
    def slice_s(self) -> float:
        return self.kernel_s / self.slices
