"""A per-test time limit: a test that runs past ``TIME_LIMIT_S`` seconds
fails with a message naming the limit, instead of stalling the whole run.

The limit is a real-time interval timer (SIGALRM), so it is skipped where
the platform has no SIGALRM.  The slowest test takes a few seconds, so
the limit only catches a test that does not end, such as a gcd loop that
never accepts a candidate.  A test can still lose the timer's exception,
say to a MemoryError raised while it is made, and hypothesis then goes on
shrinking; so ``GRACE_S`` later faulthandler dumps every thread's stack
and ends the run.
"""

import faulthandler
import os
import signal

import pytest

TIME_LIMIT_S = 120
GRACE_S = 30
_STDERR = []


class TimeLimitExceeded(BaseException):
    """Raised in a test that ran past the limit.  It is no ``Exception``, so
    the code under test does not catch it and go on."""


def pytest_configure(config):
    # the terminal's stderr, before pytest captures it, for faulthandler
    _STDERR.append(os.dup(2))


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        raise TimeLimitExceeded(f"test ran past the {TIME_LIMIT_S} s per-test limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    faulthandler.dump_traceback_later(TIME_LIMIT_S + GRACE_S, exit=True, file=_STDERR[0])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
