"""The seed every randomized test derives its RNG and primes from, and the
RNGs that replay one stream of draws under each prime.

It lives here rather than in conftest.py so that test files can import it
when tests/ and perfbench/tests/ run in one pytest session: both suites
have a top-level `conftest` module, and only one of them can own that name.
"""

SEED = 917


class Recording:
    """An RNG that records every `randrange` it serves."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def randrange(self, *args):
        self.drawn.append(self.rng.randrange(*args))
        return self.drawn[-1]


class Replaying:
    """Serves recorded draws reduced mod p: the same points under one prime."""

    def __init__(self, drawn, p):
        self.drawn, self.p = iter(drawn), p

    def randrange(self, *args):
        return next(self.drawn) % self.p
