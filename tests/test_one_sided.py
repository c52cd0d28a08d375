"""The one-sided rule, checked at small primes: every error errs the safe way.

An unlucky point or prime can only lower a rank, so every rank measured
under 7-bit primes with one trial per prime must stay at or below its
value under the 62-bit primes: the chain, the span r, h2 and n_k.  A Gauss
fiber is a corank, so it may only rise.  The contact shape is read off
the tangential projection and must agree whenever n_k does.

The sweep runs `verify_family` at `make_contexts(seed, bits=7)` with
`trials=1` over seeds 0-11, on the k = 2 catalog entries where n_k is
most easily over-reported: a projection from k freshly drawn frames with
no check on the center's rank reads n_k too high on F7 `i1` at seed 11,
F11 at seeds 0 and 5, F13 `point` at seed 6, `line` at seed 9 and
`line_secant` at seeds 5 and 7, and so does reading each chain trial's
own increment s_t^(k) - s_t^(k-1) - 1 without the full-rank filter.
"""

from __future__ import annotations

import pytest

from secantry import catalog, hilbert, terracini
from secantry.linalg import derive_rng, make_contexts

from seeds import SEED

ENTRIES = [("F7", "i1"), ("F11", "default"), ("F13", "point"), ("F13", "line"),
           ("F13", "line_secant")]
SEEDS = range(12)
K = 2


def _measure(entry, ctxs, rng, trials):
    res = catalog.verify_family(entry, ctxs, rng, trials)
    top, tan = res.scan.top, res.tangential
    return {"chain": top.chain, "r": top.r, "n_k": tan.n_k,
            "h2": hilbert.hilbert2(entry.spec, ctxs, rng, points=top.points),
            "shape": terracini.contact_shape(tan, rng).classification,
            "gauss": terracini.gauss_fiber_dim(entry.spec, ctxs, rng)}


@pytest.fixture(scope="module")
def reference():
    """Each entry's measurements under the 62-bit primes, default trials."""
    cache = {}

    def get(family, variant):
        if (family, variant) not in cache:
            entry = catalog.build_family(family, K, variant)
            cache[family, variant] = _measure(entry, make_contexts(SEED),
                                              derive_rng(SEED, "one-sided"),
                                              terracini.DEFAULT_TRIALS)
        return cache[family, variant]
    return get


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family, variant", ENTRIES)
def test_small_primes_err_one_way(family, variant, seed, reference):
    ref = reference(family, variant)
    entry = catalog.build_family(family, K, variant)
    got = _measure(entry, make_contexts(seed, bits=7),
                   derive_rng(seed, "verify", family, K, variant), trials=1)
    assert all(a <= b for a, b in zip(got["chain"], ref["chain"], strict=True))
    assert got["r"] <= ref["r"]
    assert got["h2"] <= ref["h2"]
    assert got["n_k"] <= ref["n_k"]
    assert got["gauss"] >= ref["gauss"]
    if got["n_k"] == ref["n_k"]:
        assert got["shape"] == ref["shape"]
