"""Byte-for-byte CLI reports, pinned against a committed golden file.

`test_byte_identical_reruns` compares two runs of the same code; this
file compares today's code with the reports recorded before a refactor,
so an internal rewrite that must not change a single reported number
(evaluation paths, samplers, row reduction) is checked end to end.
Run `python tests/test_golden_reports.py` to regenerate the file after
a deliberate change to what the reports contain.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from secantry.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "reports_golden.json"

# name -> CLI arguments; spec paths are relative to the repository root.
# The spec files under tests/specs/ are catalog entries written with
# `dumps_spec`; each report's spec_hash pins them.
COMMANDS = {
    "analyze-veronese-p3": ["analyze", "specs/veronese-p3.variety.json", "--k", "1"],
    # One trial leaves 2 chain samples per prime, too few for h2 = 35 of
    # 55 columns: hilbert2 reads fresh samples in both of its phases.
    "analyze-veronese-p3-trials1": ["analyze", "specs/veronese-p3.variety.json", "--k", "1",
                                    "--trials", "1"],
    "analyze-twisted-cubic": ["analyze", "specs/twisted-cubic.variety.json", "--k", "1"],
    "analyze-family-13-k2": ["analyze", "specs/family-13-k2.variety.json", "--k-max", "3"],
    # The two contact shapes the files above do not reach: F11's image is
    # a developable surface, F8's is implicit-backed (Indeterminate).
    "analyze-family-11-k2": ["analyze", "tests/specs/family-11-k2.variety.json", "--k", "2"],
    "analyze-family-8-k2": ["analyze", "tests/specs/family-8-k2.variety.json", "--k", "2"],
    # The join charts: F7 and F10 read the Gauss fiber through
    # JoinLinear's chart (a developable image, then a non-developable
    # one); the scroll S(2,3) is a ruled_join spec.
    "analyze-family-7-k2": ["analyze", "tests/specs/family-7-k2.variety.json", "--k", "2"],
    "analyze-family-10-k2": ["analyze", "tests/specs/family-10-k2.variety.json", "--k", "2"],
    "analyze-ruled-join-s23": ["analyze", "tests/specs/ruled-join-s23.variety.json", "--k", "1"],
    # The span folds the chain trials' points first: 5 trials x 2 samples
    # of the Segre P^3 x P^3 in P^15 fall short of 16 and the span draws
    # more; with --k-max 3, 20 points fill it.
    "analyze-ex-segre-k2": ["analyze", "tests/specs/ex-segre-k2.variety.json", "--k", "1"],
    "analyze-ex-segre-k2-kmax3": ["analyze", "tests/specs/ex-segre-k2.variety.json",
                                  "--k", "1", "--k-max", "3"],
    # h2 stops at full rank: no quadric vanishes on a cubic threefold in
    # P^4, so h2 = 15 is every column (the Segre entries above stop on a
    # stalled rank, 100 of 136).  The Hypersurface sampler solves roots.
    "analyze-cubic-threefold": ["analyze", "tests/specs/cubic-threefold.variety.json",
                                "--k", "1"],
    # Surface images (n_k = 2) whose contact shape reads each prime's
    # projection: F14 is a plain chart, F13 `point` and `line_secant`
    # project a 2-uple before the tangential projection does, and F1
    # `line` is a cone section (Indeterminate).
    "analyze-family-14-k2": ["analyze", "tests/specs/family-14-k2.variety.json", "--k", "2"],
    "analyze-family-13-k2-point": ["analyze", "tests/specs/family-13-k2-point.variety.json",
                                   "--k", "2"],
    "analyze-family-13-k2-line-secant": [
        "analyze", "tests/specs/family-13-k2-line-secant.variety.json", "--k", "2"],
    "analyze-family-1-k2-line": ["analyze", "tests/specs/family-1-k2-line.variety.json",
                                 "--k", "2"],
    # The Segre and cone charts: EX_TERRACINI_13 k = 4's projection reads
    # its Gauss fiber through SegrePair's chart (not developable), F4
    # k = 4's through ConeOver's and a nested projection's (developable).
    "analyze-ex-terracini-13-k4": ["analyze", "tests/specs/ex-terracini-13-k4.variety.json",
                                   "--k", "4"],
    "analyze-family-4-k4": ["analyze", "tests/specs/family-4-k4.variety.json", "--k", "4"],
    # One entry per root-solving sampler: F5 is the catalog's only
    # RestrictedChart, F1 `point` a ConeSection, F8 a Hypersurface.
    "verify-F5-k4": ["catalog", "verify", "--family", "F5", "--k", "4"],
    "verify-F1-k2-point": ["catalog", "verify", "--family", "F1", "--k", "2",
                           "--variant", "point"],
    "verify-F8-k2": ["catalog", "verify", "--family", "F8", "--k", "2"],
    "verify-F13-k2-seed5": ["catalog", "verify", "--family", "F13", "--k", "2",
                            "--seed", "5"],
    # Dense quadrics at large nvars, read through each prime's plan: F1
    # k = 4's section is a 253-term quadric in 22 variables; the `line`
    # variant adds a 276-term quadric in 23.
    "verify-F1-k4": ["catalog", "verify", "--family", "F1", "--k", "4"],
    "verify-F1-k4-line": ["catalog", "verify", "--family", "F1", "--k", "4",
                          "--variant", "line"],
    # Veronese ladders off the plain 2-uple: EX_TERRACINI_13 is the
    # catalog's only d = 3 Veronese (under a SegrePair); F4 k = 4 is a
    # 2-uple over a ProjectFrom, whose kernel map runs kernel_basis.
    "verify-EX_TERRACINI_13-k4": ["catalog", "verify", "--family", "EX_TERRACINI_13",
                                  "--k", "4"],
    "verify-F4-k4": ["catalog", "verify", "--family", "F4", "--k", "4"],
    # A sampled ProjectFrom whose center has two rows: F13's `line`
    # variant projects a 2-uple from a line, so its kernel map has two
    # pivot columns (the entries above sample projections from a point).
    "verify-F13-k3-line": ["catalog", "verify", "--family", "F13", "--k", "3",
                           "--variant", "line"],
    # A projection wider than PACK_MIN_WIDTH: the rational normal curve of
    # degree 45 from one random point, so its samples and its chart reduce
    # 46-column rows packed.
    "analyze-rnc45-point": ["analyze", "tests/specs/rnc45-point.variety.json", "--k", "2"],
    # hilbert2 wider than any benchmark spec: v2(P^5) reduces rows of 231
    # quadric columns, v2(P^6) rows of 406.
    "analyze-veronese-p5": ["analyze", "tests/specs/veronese-p5.variety.json", "--k", "1"],
    "analyze-veronese-p6": ["analyze", "tests/specs/veronese-p6.variety.json", "--k", "1"],
}


def run_report(args: list[str]) -> dict:
    """Exit code, stdout and stderr of one CLI run."""
    args = [str(ROOT / a) if a.endswith(".variety.json") else a for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_report_matches_golden(name):
    assert run_report(COMMANDS[name]) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run_report(args) for name, args in COMMANDS.items()},
                                 indent=1, sort_keys=True) + "\n")
