"""Command-line interface: reports, exit codes, reproducibility."""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from secantry.cli import main
from secantry.linalg import make_contexts

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"

ANALYZE_FIELDS = {"spec_hash", "seed", "primes", "trials", "ambient_r",
                  "dim_n", "chain", "sigma_k", "delta_k", "n_k", "m_k",
                  "contact_shape", "h1", "h2", "mismatches"}


def run(args):
    return main(args)


class TestAnalyze:
    def test_double_embedding_of_p3(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["analyze", str(SPECS / "veronese-p3.variety.json"),
                    "--k", "1", "--seed", "5", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert set(rep) == ANALYZE_FIELDS
        assert rep["chain"] == [3, 6]
        assert rep["sigma_k"] == 7 and rep["delta_k"] == 1
        assert rep["ambient_r"] == 9 and rep["dim_n"] == 3
        assert rep["n_k"] == 2 and rep["m_k"] == 1
        assert rep["h1"] == 10
        assert len(rep["primes"]) == 2
        assert rep["mismatches"] == []

    def test_chain_scan_golden(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["analyze", str(SPECS / "family-13-k2.variety.json"),
                    "--k-max", "3", "--seed", "5", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["chain"] == [3, 7, 10, 12]
        assert rep["h1"] == 14

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["analyze", str(SPECS / "twisted-cubic.variety.json"),
                "--k", "1", "--seed", "11"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_markdown_format(self, capsys):
        code = run(["analyze", str(SPECS / "twisted-cubic.variety.json"),
                    "--k", "1", "--format", "markdown"])
        assert code == 0
        text = capsys.readouterr().out
        assert "| chain |" in text

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.variety.json"
        bad.write_text("{ nope")
        assert run(["analyze", str(bad)]) == 1
        missing = tmp_path / "missing.variety.json"
        assert run(["analyze", str(missing)]) == 1

    def test_k_must_not_exceed_k_max(self, capsys):
        code = run(["analyze", str(SPECS / "twisted-cubic.variety.json"),
                    "--k", "3", "--k-max", "1"])
        assert code == 1

    def test_bad_input_is_one_error_line(self, tmp_path, capsys):
        dependent = tmp_path / "dependent.variety.json"
        dependent.write_text('{"op":"project","center":[[1,0,0,0],[2,0,0,0]],'
                             '"child":{"op":"scroll","degrees":[3]}}')
        cubic = str(SPECS / "twisted-cubic.variety.json")
        for args in (["analyze", str(dependent)],
                     ["analyze", cubic, "--trials", "0"],
                     ["analyze", cubic, "--k", "-1"],
                     ["catalog", "verify-all", "--k-range", "0..9"]):
            assert run(args) == 1, args
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (args, err)

    CUBIC = '{"op":"scroll","degrees":[3]}'

    # A float, bool or string where an integer belongs, a string for
    # `scaled`, or a block row narrower than the child: int(), bool() or
    # zip would quietly read each one as a different spec.  An integer out
    # of its range would fail only at sampling, or be kept as given.  A
    # polynomial that is not a string, ends in a dangling `^`, raises to an
    # exponent above mpoly.MAX_EXPONENT, or nests so deeply (as may the JSON
    # itself) that a recursive reader overflows must still end in one
    # `error:` line, not a traceback.
    @pytest.mark.parametrize("spec", [
        '{"op":"hypersurface","m":3.9,"equation":"x0*x1 - x2*x3"}',
        '{"op":"cone","vertex_dim":0.5,"child":%s}' % CUBIC,
        '{"op":"veronese","d":true,"child":%s}' % CUBIC,
        '{"op":"project","center":[[1.7,0,0,1]],"child":%s}' % CUBIC,
        '{"op":"parametric","nvars":1,"coords":["1","t0","t0^2"],"scaled":"false"}',
        '{"op":"project","dim":"1","center":[[1,0,0,1]],"child":%s}' % CUBIC,
        '{"op":"project","dim":1.0,"center":[[1,0,0,1]],"child":%s}' % CUBIC,
        '{"op":"join_linear","block":[[1,2,3],[5]],"child":{"op":"scroll","degrees":[2]}}',
        '{"op":"project","dim":2,"center":[[1,0,0,1]],"child":%s}' % CUBIC,
        '{"op":"project","dim":-1,"center":[[1,0,0,1]],"child":%s}' % CUBIC,
        '{"op":"scroll","degrees":[-1,3]}',
        '{"op":"hypersurface","m":0,"equation":"x0"}',
        '{"op":"hypersurface","m":-1,"equation":"1"}',
        '{"op":"parametric","nvars":1,"coords":["1","t0","t0^2"],"degree":-5}',
        '{"op":"project","degree":0,"center":[[1,0,0,1]],"child":%s}' % CUBIC,
        '{"op":"fibered_join","base_vars":-1,"base":["1"],"fiber":["1","t0"]}',
        '{"op":"parametric","nvars":-1,"coords":["1","2"]}',
        '{"op":"hypersurface","m":2,"equation":5}',
        '{"op":"parametric","nvars":1,"coords":[1,"t0"]}',
        '{"op":"hypersurface","m":2,"equation":"x0^"}',
        '{"op":"hypersurface","m":2,"equation":"x0^10000000 - x1^10000000"}',
        '{"op":"hypersurface","m":2,"equation":"%sx0%s"}' % ("(" * 3000, ")" * 3000),
        "[" * 100000 + "]" * 100000,
    ], ids=["m-float", "vertex_dim-float", "d-bool", "center-float", "scaled-string",
            "dim-string", "dim-float", "block-short-row", "dim-above-child",
            "dim-negative", "scroll-degree-negative", "m-zero", "m-negative",
            "degree-negative", "project-degree-zero", "base_vars-negative",
            "nvars-negative", "equation-number", "coord-number",
            "equation-dangling-power", "equation-huge-exponent", "equation-nested-3000", "json-nested-100000"])
    def test_mistyped_fields_are_parse_errors(self, spec, tmp_path, capsys):
        path = tmp_path / "mistyped.variety.json"
        path.write_text(spec)
        assert run(["analyze", str(path), "--k", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_fiber_naming_no_variable_has_no_parameter(self, tmp_path, capsys):
        # The join of the point (1) with the point (1) is the line P^1; a
        # phantom fiber parameter would claim a surface that cannot be framed.
        path = tmp_path / "line.variety.json"
        path.write_text('{"op":"fibered_join","base_vars":0,"base":["1"],"fiber":["1"]}')
        assert run(["analyze", str(path), "--k", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["dim_n"], rep["ambient_r"]) == (1, 1)

    def test_usage_errors_exit_1(self, capsys):
        # A malformed option is a parse error (1), not sampler exhaustion (2).
        for args in (["analyze", str(SPECS / "twisted-cubic.variety.json"), "--k", "foo"],
                     ["catalog", "verify-all", "--k-range", "a..b"]):
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 1, args
            err = capsys.readouterr().err
            assert "error:" in err
            if "--k-range" in args:
                assert "k range looks like 2..4" in err

    def test_sampler_exhaustion_exit_2(self, tmp_path, capsys):
        # The center contains the line (1, t, 0, 0), so every sample of the
        # projection is zero.
        spec = tmp_path / "collapsed.variety.json"
        spec.write_text('{"op":"project","center":[[1,0,0,0],[0,1,0,0]],'
                        '"child":{"op":"parametric","nvars":1,'
                        '"coords":["1","t0","0","0"]}}')
        assert run(["analyze", str(spec), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sampling failed") and err.count("\n") == 1, err

    def test_no_root_found_exit_2(self, tmp_path, capsys):
        # Both of seed 6's primes are 3 mod 8, where 2 is not a square, so
        # x0^2 = 2*x1^2 has no point and the Hypersurface sampler finds no root.
        assert all(c.p % 8 == 3 for c in make_contexts(6))
        spec = tmp_path / "pointless.variety.json"
        spec.write_text('{"op":"hypersurface","m":1,"equation":"x0^2 - 2*x1^2"}')
        assert run(["analyze", str(spec), "--k", "1", "--seed", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sampling failed: Hypersurface: no univariate root")
        assert err.count("\n") == 1, err

    def test_center_dependent_mod_the_run_prime_exit_2(self, tmp_path, capsys):
        # The loader finds these rows independent modulo 2^61 - 1, but seed
        # 0's first prime divides the second row's entry: an unlucky prime.
        p = make_contexts(0)[0].p
        assert p == 4062959625339910931
        spec = tmp_path / "unlucky.variety.json"
        spec.write_text('{"op":"project","center":[[1,0,0,0,0],[1,%d,0,0,0]],'
                        '"child":{"op":"scroll","degrees":[4]}}' % p)
        assert run(["analyze", str(spec), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: sampling failed: projection center rows are dependent mod p\n"

    # 2^61 - 1 divides the second row, so these rows are dependent modulo
    # that prime but independent over Q: the loader keeps them.  Rows
    # dependent over Q, however large their entries, are refused (exit 1).
    @pytest.mark.parametrize("center, code", [
        ([[1, 0, 0, 0], [0, 2**61 - 1, 0, 0]], 0),
        ([[1, 2**61 - 1, 0, 0], [2**61 - 1, (2**61 - 1) ** 2, 0, 0]], 1),
    ], ids=["independent-over-q", "dependent-over-q"])
    def test_center_rank_is_read_over_q(self, center, code, tmp_path, capsys):
        spec = tmp_path / "center.variety.json"
        spec.write_text(json.dumps({"op": "project", "center": center,
                                    "child": {"op": "scroll", "degrees": [3]}}))
        assert run(["analyze", str(spec), "--k", "1"]) == code
        err = capsys.readouterr().err
        assert err.endswith("node: center rows are linearly dependent\n") if code else err == ""

    # Rows that are all multiples of 2^61 - 1 are dependent modulo it.  Their
    # rank modulo 2^127 - 1 is read next; over Q, these 20 x 22 rows of 4000
    # digits took about 50 s by Bareiss elimination.  The load runs in a
    # subprocess that the timeout stops.
    def test_center_of_multiples_of_the_first_prime_loads_at_once(self, tmp_path):
        rng = random.Random(0)
        center = [[rng.randrange(10 ** 3999, 10 ** 4000) * (2**61 - 1) for _ in range(22)]
                  for _ in range(20)]
        spec = tmp_path / "center.variety.json"
        spec.write_text(json.dumps({"op": "project", "center": center,
                                    "child": {"op": "scroll", "degrees": [21]}}))
        script = ("import sys\nfrom secantry.variety import loads_spec\n"
                  "print(loads_spec(open(sys.argv[1]).read()).ambient)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script, str(spec)], env=env,
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr

    # Each `^` is capped at mpoly.MAX_EXPONENT, but products of capped
    # powers could still expand for minutes, so these run in a subprocess
    # that the timeout stops.
    @pytest.mark.parametrize("m, equation", [
        (9, "(x0+x1+x2+x3+x4+x5+x6+x7+x8+x9)^20"),
        (1, "((x0+x1)^100)^100"),
    ], ids=["many-terms", "nested-powers"])
    def test_expansion_is_bounded(self, m, equation, tmp_path):
        spec = tmp_path / "huge.variety.json"
        spec.write_text(json.dumps({"op": "hypersurface", "m": m, "equation": equation}))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "secantry.cli", "analyze", str(spec),
                               "--k", "1"], env=env, capture_output=True, text=True, timeout=20)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    # A node's ambient dimension is capped at variety.MAX_AMBIENT before the
    # node allocates by it: a scroll's coordinates, a Veronese's rungs, a
    # cone's vertex, a hypersurface's variables.  Uncapped, each of these ran
    # past an 8 s timeout, so they run in a subprocess that the timeout
    # stops, under a 1 GiB address-space limit.
    @pytest.mark.parametrize("spec", [
        '{"op":"scroll","degrees":[10000000]}',
        '{"op":"veronese","d":60,"child":{"op":"scroll","degrees":[1,1,1]}}',
        '{"op":"cone","vertex_dim":100000000,"child":{"op":"scroll","degrees":[3]}}',
        '{"op":"hypersurface","m":3000000,"equation":"x0"}',
    ], ids=["scroll", "veronese-rungs", "cone-vertex", "hypersurface-m"])
    def test_ambient_is_capped(self, spec, tmp_path):
        path = tmp_path / "wide.variety.json"
        path.write_text(spec)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "secantry.cli", "analyze", str(path),
                               "--k", "1"], env=env, capture_output=True, text=True, timeout=5,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (1 << 30, 1 << 30)))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "ambient dimension" in proc.stderr

    # A chart of dimension above its ambient dimension can never be framed,
    # and is rejected before its polynomials are parsed against its variable
    # count.  Unchecked, parsing at 100000 variables ran past a 10 s timeout.
    @pytest.mark.parametrize("spec", [
        '{"op":"parametric","nvars":100000,"coords":["1","t0"]}',
        '{"op":"parametric","nvars":3,"scaled":true,"coords":["t0","t1"]}',
        '{"op":"ruled_join","nvars":100000,"map1":["1","t0"],"map2":["1","t1"]}',
        '{"op":"restricted","nvars":100000,"chart":["1","t0","t1"],"equation":"x0"}',
        '{"op":"fibered_join","base_vars":1,"base":["1","t0"],"fiber":["t99999"]}',
    ], ids=["parametric", "parametric-scaled", "ruled-join", "restricted", "fibered-join"])
    def test_chart_dimension_is_capped(self, spec, tmp_path):
        path = tmp_path / "chart.variety.json"
        path.write_text(spec)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "secantry.cli", "analyze", str(path),
                               "--k", "1"], env=env, capture_output=True, text=True, timeout=5,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (1 << 30, 1 << 30)))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "cannot lie in" in proc.stderr

    # A chain past order MAX_AMBIENT, or a scan holding 10^8 trials, ran past
    # a 10 s timeout uncapped (the trials under 400 MB ended in MemoryError).
    @pytest.mark.parametrize("args", [
        ["analyze", "specs/twisted-cubic.variety.json", "--k-max", "100000"],
        ["analyze", "specs/twisted-cubic.variety.json", "--k", "100000"],
        ["analyze", "specs/twisted-cubic.variety.json", "--k", "1", "--trials", "100000000"],
        ["catalog", "verify", "--family", "F13", "--k", "2", "--trials", "100000000"],
    ], ids=["k-max", "k", "trials", "verify-trials"])
    def test_orders_and_trials_are_capped(self, args):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "secantry.cli", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=5,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (1 << 30, 1 << 30)))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


class TestCatalogCommands:
    def test_list(self, tmp_path):
        out = tmp_path / "list.json"
        assert run(["catalog", "list", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 17  # 14 families plus 3 classical examples
        by_family = {r["family"]: r for r in rows}
        assert not by_family["F3"]["constructible"]
        assert by_family["F13"]["variants"] == ["full", "point", "line",
                                                "line_secant"]
        assert by_family["F4"]["variants"] == ["default"]

    def test_options_a_command_does_not_read_are_rejected(self, capsys):
        # `list` measures nothing and `verify-all` prints JSON only; taking
        # these options silently would hide a mistyped command line.
        for args in (["catalog", "list", "--format", "markdown"],
                     ["catalog", "list", "--trials", "7"],
                     ["catalog", "list", "--seed", "3"],
                     ["catalog", "verify-all", "--format", "markdown"]):
            with pytest.raises(SystemExit) as exc:
                run(args)
            assert exc.value.code == 1, args
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["catalog", "verify", "--family", "F13", "--k", "2",
                    "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["mismatches"] == []
        assert rep["chain"] == [3, 7, 10, 12]

    def test_verify_not_constructible_is_skip(self, capsys):
        assert run(["catalog", "verify", "--family", "F3", "--k", "3"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_verify_unknown_family_errors(self, capsys):
        assert run(["catalog", "verify", "--family", "F99", "--k", "2"]) == 1

    def test_verify_unknown_variant_errors(self, capsys):
        assert run(["catalog", "verify", "--family", "F4", "--k", "4",
                    "--variant", "bogus"]) == 1

    def test_verify_all_narrow_range(self, tmp_path, capsys):
        out = tmp_path / "all.json"
        code = run(["catalog", "verify-all", "--k-range", "2..2",
                    "--trials", "2", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        skipped = [r for r in rows if r.get("skipped")]
        verified = [r for r in rows if not r.get("skipped")]
        assert all(r["pass"] for r in verified)
        assert {r["family"] for r in skipped} >= {"F3", "F6", "F9"}


# An --out that cannot be written is one error line and exit 1, with no
# temporary file left behind: a missing directory fails the write, and a
# directory fails the rename over it.
@pytest.mark.parametrize("args", [
    ["analyze", str(SPECS / "twisted-cubic.variety.json"), "--k", "1"],
    ["catalog", "list"],
], ids=["analyze", "catalog-list"])
@pytest.mark.parametrize("target", ["missing/r.json", "dir"])
def test_unwritable_out_exit_1(args, target, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    assert run(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and "wrote" not in captured.out
    assert sorted(f.name for f in tmp_path.iterdir()) == ["dir"]
    assert not any((tmp_path / "dir").iterdir())
