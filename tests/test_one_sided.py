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

n_k is a difference of two maxima, so its rule is conditional: it errs only
low when the accepted s^(k-1) is right.  The last test pins a 5-bit case
where s^(k-1) reads low on every trial and n_k reads high.
"""

from __future__ import annotations

from unittest import mock

import pytest

from secantry import catalog, hilbert, terracini
from secantry.linalg import derive_rng, make_contexts

from seeds import SEED

ENTRIES = [("F7", "i1"), ("F11", "default"), ("F13", "point"), ("F13", "line"),
           ("F13", "line_secant")]
SEEDS = range(12)
K = 2


def _measure(entry, ctxs, rng, trials):
    samples = {}

    def projection(spec, k, ctxs, rng, report):
        # verify_family drops the samples after the projection: keep them, as
        # `cli._measure` hands them to hilbert2.
        samples.update(report.samples)
        return terracini.tangential_projection(spec, k, ctxs, rng, report=report)

    with mock.patch.object(catalog, "tangential_projection", projection):
        res = catalog.verify_family(entry, ctxs, rng, trials)
    top, tan = res.scan.top, res.tangential
    return {"chain": top.chain, "r": top.r, "n_k": tan.n_k,
            "h2": hilbert.hilbert2(entry.spec, ctxs, rng, samples),
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


def test_n_k_errs_high_only_below_the_reference_chain(reference):
    """n_k = s^(k) - s^(k-1) - 1 errs only low when the accepted s^(k-1) is
    right; it is certified when it reaches min(R, n*k + k - 1).  At 5 bits,
    F13 k=2 `line` at seed 4 (primes 23 and 19) meets a non-unit pivot
    modulo 23*19, reruns its measurement under each prime, and reads s^(1) = 6
    on both, below the reference and the bound 7, so its center is not
    general and n_k reads 3 against 2."""
    ref = reference("F13", "line")
    entry = catalog.build_family("F13", K, "line")
    ctxs = make_contexts(4, bits=5)
    assert [c.p for c in ctxs] == [23, 19]
    res = catalog.verify_family(entry, ctxs,
                                derive_rng(4, "verify", "F13", K, "line"), trials=1)
    chain, n_k = res.scan.top.chain, res.tangential.n_k
    assert (chain, n_k, ref["chain"], ref["n_k"]) == ([3, 6, 10, 11], 3, [3, 7, 10, 11], 2)
    assert chain[K - 1] < min(entry.spec.ambient, entry.spec.dim * K + K - 1) == 7
    # The rule the code keeps: n_k rises above the reference only where
    # chain[k-1] is below it; the chain itself still errs only low.
    assert n_k <= ref["n_k"] or chain[K - 1] < ref["chain"][K - 1]
    assert all(a <= b for a, b in zip(chain, ref["chain"], strict=True))
