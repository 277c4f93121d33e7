"""The deterministic clock the serving tests inject.

It lives in its own module, not in ``conftest.py``: a tier-1 run also
collects ``benchmarks/``, whose ``conftest.py`` takes over the module
name ``conftest``, so ``from conftest import ...`` cannot reach this
directory's.
"""


class FakeClock:
    """A manually advanced clock; each reading moves time forward a tick.

    The tick stands in for step execution time, so admission interleaves
    with service deterministically, without real sleeps.  Test modules
    import it (``from fake_clock import FakeClock``) and hand it to
    ``ServerConfig(clock=...)``.
    """

    def __init__(self, tick: float = 0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now
