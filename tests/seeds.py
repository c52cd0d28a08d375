"""The seed every randomized test derives its RNG and primes from.

It lives here rather than in conftest.py so that test files can import it
when tests/ and perfbench/tests/ run in one pytest session: both suites
have a top-level `conftest` module, and only one of them can own that name.
"""

SEED = 917
