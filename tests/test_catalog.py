"""Catalog construction, expected tables, and verification plumbing."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from secantry.catalog import (FAMILIES, FAMILY_DOMAINS, FAMILY_VARIANTS,
                              Expected, NotConstructible, SkippedFamily,
                              build_family, verify_all, verify_family)
from secantry.linalg import derive_rng
from secantry.terracini import tangential_projection
from secantry.variety import spec_hash

from seeds import SEED

GOLDEN = Path(__file__).resolve().parent / "catalog_golden.json"


def catalog_table() -> dict:
    """Every build_family(family, k, variant) for k = 1..5, optional variants too."""
    table = {}
    for family, fam in FAMILIES.items():
        for k in range(1, 6):
            for variant in fam.variants + fam.optional:
                key = f"{family}/k{k}/{variant}"
                try:
                    e = build_family(family, k, variant)
                except NotConstructible as exc:
                    table[key] = {"not_constructible": str(exc)}
                    continue
                table[key] = {"spec_hash": spec_hash(e.spec), "k_eval": e.k_eval,
                              "expected": dataclasses.asdict(e.expected),
                              "variant": e.variant, "note": e.note}
    return table


class TestBuildFamily:
    def test_full_double_embedding_table(self):
        entry = build_family("F13", 3, "full")
        assert entry.expected.r == 17
        assert entry.expected.s_k == 14
        assert entry.expected.delta_k == 1
        assert entry.expected.s_k_plus_1 == 16
        assert entry.spec.dim == 3

    def test_vertex_point_table(self):
        entry = build_family("F1", 2, "point")
        assert entry.expected == Expected(10, 9, 1, 1, 10)

    def test_deterministic_construction(self, ctxs):
        a = build_family("F10", 2)
        b = build_family("F10", 2)
        assert spec_hash(a.spec) == spec_hash(b.spec)

    def test_not_constructible_families(self):
        for family in ("F3", "F6", "F9"):
            with pytest.raises(NotConstructible):
                build_family(family, 3)

    def test_domain_limits(self):
        with pytest.raises(NotConstructible):
            build_family("F4", 2)   # needs a smooth curve that exists only for k >= 4
        with pytest.raises(NotConstructible):
            build_family("F2", 4)   # the hypersurface family lives at k = 3 only
        with pytest.raises(ValueError):
            build_family("F99", 2)

    def test_unknown_variants_rejected(self):
        with pytest.raises(ValueError):
            build_family("F4", 4, "bogus")
        with pytest.raises(ValueError):
            build_family("F10", 2, "x")

    def test_golden_table(self):
        # Spec hashes pin every random draw a construction makes, so this
        # also pins the order in which each builder consumes its rng.
        assert catalog_table() == json.loads(GOLDEN.read_text())

    def test_double_line_variant(self, ctxs):
        # The optional second branch of F4: same invariant row, different
        # construction (projection from a point on the directrix-conic plane).
        entry = build_family("F4", 4, "double_line")
        res = verify_family(entry, ctxs, derive_rng(SEED, "dl"), trials=2)
        assert res.passed, res.mismatches

    def test_every_domain_entry_builds(self):
        for family in FAMILIES:
            for k in FAMILY_DOMAINS.get(family, ()):
                for variant in FAMILY_VARIANTS.get(family, ("default",)):
                    entry = build_family(family, k, variant)
                    assert entry.spec.dim >= 1
                    assert entry.expected.r >= entry.expected.s_k


class TestVerifyFamily:
    def test_pass_smallest_case(self, ctxs):
        entry = build_family("F13", 2, "full")
        res = verify_family(entry, ctxs, derive_rng(SEED, "vf"), trials=3)
        assert res.passed and not res.mismatches
        assert res.scan.first_defective == 2
        assert res.scan.top.chain == [3, 7, 10, 12]

    def test_extra_examples_pass(self, ctxs):
        for family, k in (("EX_VERONESE_P3", 1), ("EX_SEGRE", 2),
                          ("EX_TERRACINI_13", 4)):
            entry = build_family(family, k)
            res = verify_family(entry, ctxs, derive_rng(SEED, "vex", family),
                                trials=3)
            assert res.passed, (family, res.mismatches)

    def test_chain_trials_are_released(self, ctxs):
        # verify_all keeps every result: the trials' pivot rows and samples go
        # once the tangential projection has read them, and no copy of the
        # chain points stays behind.
        entry = build_family("F13", 2, "full")
        res = verify_family(entry, ctxs, derive_rng(SEED, "vf"), trials=2)
        assert res.passed and res.tangential.n_k == entry.expected.n_k
        assert res.scan.top.draws == res.scan.top.samples == {}
        assert not hasattr(res.scan.top, "points")
        # So the report cannot feed another projection, and says why.
        with pytest.raises(ValueError, match="no trials"):
            tangential_projection(entry.spec, 2, ctxs, derive_rng(SEED, "vf2"),
                                  report=res.scan.top)

    def test_mismatches_are_surfaced_not_raised(self, ctxs):
        # Every field of the row set one off: each is reported, in order.
        entry = build_family("F13", 2, "full")
        exp = entry.expected  # r 13, s_k 10, delta_k 1, n_k 2, s_(k+1) 12
        entry.expected = dataclasses.replace(exp, r=14, s_k=9, delta_k=2, n_k=1, s_k_plus_1=11)
        res = verify_family(entry, ctxs, derive_rng(SEED, "vm"), trials=2)
        assert not res.passed
        assert res.mismatches == ["r: expected 14, measured 13", "s_k: expected 9, measured 10",
                                  "delta_k: expected 2, measured 1", "n_k: expected 1, measured 2",
                                  "s_(k+1): expected 11, measured 12"]
        # Read at order 3, the entry is first defective at 2: not minimal there.
        entry.expected, entry.k_eval = exp, 3
        res = verify_family(entry, ctxs, derive_rng(SEED, "vm"), trials=2)
        assert not res.passed
        assert "minimal: expected first defective k=3, measured 2" in res.mismatches


class TestVerifyAll:
    def test_k2_slice(self, ctxs):
        results = verify_all([2], ctxs, trials=2, seed=SEED)
        verified = [r for r in results if not isinstance(r, SkippedFamily)]
        skipped = [r for r in results if isinstance(r, SkippedFamily)]
        assert all(r.passed for r in verified), \
            [(r.entry.family, r.mismatches) for r in verified if not r.passed]
        assert {s.family for s in skipped} >= {"F3", "F6", "F9"}
        families_checked = {r.entry.family for r in verified}
        assert {"F1", "F7", "F8", "F10", "F11", "F12", "F13", "F14",
                "EX_SEGRE"} <= families_checked

    def test_rejects_out_of_range(self, ctxs):
        with pytest.raises(ValueError):
            verify_all([7], ctxs)


if __name__ == "__main__":
    # Regenerate the golden table after a deliberate catalog change.
    GOLDEN.write_text(json.dumps(catalog_table(), indent=1, sort_keys=True) + "\n")
