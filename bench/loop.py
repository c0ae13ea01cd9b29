"""The timed loop's clock, shared by worker.py and cli_loop.py.

It ends the loop when the time budget is spent and takes the run's
set-up samples at even steps through it, so that ``setup_s`` sees the
same stretch of machine time as the operations do.  Time spent on the
samples is left out of the budget.  Stdlib only: cli_loop.py must stay
small (see there).
"""

from __future__ import annotations

import resource
from time import perf_counter
from typing import Callable, Optional

# set-ups timed per end-to-end run, the last one after the loop
SETUP_SAMPLES = 9


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ``ru_maxrss`` of RUSAGE_SELF would be wrong here: Linux carries the
    parent's peak across exec, so a worker would report run.py's.  The
    high-water mark in /proc/self/status belongs to this process image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Clock:
    """``seconds`` of loop time; ``take_setup`` times one set-up, or is None."""

    def __init__(self, seconds: float, take_setup: Optional[Callable[[], float]] = None,
                 setups: tuple[float, ...] = ()):
        self.seconds = seconds
        self.take_setup = take_setup
        self.setups = list(setups)
        self.paused = 0.0
        self.start = perf_counter()

    def running(self) -> bool:
        """False once the budget is spent; else take a set-up sample if one is due."""
        elapsed = perf_counter() - self.start - self.paused
        if elapsed >= self.seconds:
            return False
        step = self.seconds / (SETUP_SAMPLES - 1)
        if self.take_setup and len(self.setups) < SETUP_SAMPLES - 1 and elapsed >= len(self.setups) * step:
            t0 = perf_counter()
            self.setups.append(self.take_setup())
            self.paused += perf_counter() - t0
        return True

    def finish(self) -> list[float]:
        """Take the samples still missing (a loop that ran out of operations) and return all."""
        while self.take_setup and len(self.setups) < SETUP_SAMPLES:
            self.setups.append(self.take_setup())
        return self.setups
