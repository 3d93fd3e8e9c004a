"""CLI contract: subcommands, exit codes, deterministic reports."""

import collections
import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multinerve.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def mnv(*args, cwd=None):
    # the child finds the package in this checkout's src/, installed or not
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "multinerve.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def mnv_in_process(*argv):
    """``main(argv)`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class TestHomology:
    def test_double_edge_poset_betti(self):
        r = mnv("homology", str(FIXTURES / "double_edge.poset"))
        assert r.returncode == 0
        assert r.stdout == "1 1\n"

    def test_complex_input(self, tmp_path):
        p = tmp_path / "k.complex"
        p.write_text("complex v1\n0\n1\n2\n0 1\n1 2\n0 2\n")
        r = mnv("homology", str(p))
        assert r.returncode == 0 and r.stdout == "1 1\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "b.betti"
        r = mnv("homology", str(FIXTURES / "double_edge.poset"), "--out", str(out))
        assert r.returncode == 0
        assert out.read_text() == "1 1\n"


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        p = tmp_path / "bad.poset"
        p.write_text("poset v1\n0 -1\n1 0 9\n")
        r = mnv("homology", str(p))
        assert r.returncode == 2
        assert "bad.poset" in r.stderr

    def test_missing_file_is_2(self):
        r = mnv("homology", "no-such-file.poset")
        assert r.returncode == 2

    def test_usage_error_is_2(self):
        r = mnv("frobnicate")
        assert r.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("gen", "--backend", "box", "--n", "0", "--seed", "1"),
        ("multinerve", str(FIXTURES / "two_arcs.family"), "--t", "0"),
        ("check-acyclic", str(FIXTURES / "two_arcs.family"), "--s", "-1"),
        ("homology", str(FIXTURES)),
        ("homology", "{latin1}"),
        ("leray", str(FIXTURES / "double_edge.poset"), "--cap", "-1"),
        ("leray", str(FIXTURES / "double_edge.poset"), "--sample", "-3"),
        ("gen", "--backend", "subcomplex", "--n", "2", "--seed", "1",
         "--grid", "0"),
        ("gen", "--backend", "box", "--n", "2", "--seed", "1",
         "--ambient-dim", "-1"),
        ("gen", "--backend", "box", "--n", "2", "--seed", "1",
         "--ambient-dim", "0"),
        ("gen", "--backend", "box", "--n", "2", "--seed", "1",
         "--boxes-per-member", "-1"),
        ("gen", "--backend", "subcomplex", "--n", "2", "--seed", "1",
         "--stars-per-member", "-1"),
        ("multinerve", str(FIXTURES / "two_arcs.family"), "--gamma-dim", "-4"),
        ("verify", "helly", str(FIXTURES / "intervals.family"),
         "--gamma-dim", "-1"),
        ("helly", "{box-2}"),
        ("nerve", "{box0}"),
        ("check-acyclic", "{gamma-4}", "--s", "0"),
    ])
    def test_bad_argument_or_path_is_2_without_traceback(self, argv, tmp_path):
        latin1 = tmp_path / "latin1.poset"
        latin1.write_bytes("poset v1\n0 -1 caf\u00e9\n".encode("latin-1"))
        files = {"{latin1}": latin1}
        for name, text in (("{box-2}", "family v1 box -2\n"),
                           ("{box0}", "family v1 box 0\n"),
                           ("{gamma-4}", "family v1 box 1\ngamma-dim -4\n"
                                         "member\nbox 0 1\n")):
            files[name] = tmp_path / f"{name[1:-1]}.family"
            files[name].write_text(text)
        r = mnv(*(str(files[a]) if a in files else a for a in argv))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.strip().splitlines()[-1].startswith("mnv")

    @pytest.mark.parametrize("argv", [
        ("helly", "{input}"),
        ("verify", "helly", "{input}"),
        ("verify", "projection", "{input}"),
        ("verify", "multinerve", "{input}", "--s", "0"),
        ("multinerve", "{input}"),
    ])
    @pytest.mark.parametrize("empty_members", [
        ("--backend", "box", "--boxes-per-member", "0"),
        ("--backend", "subcomplex", "--stars-per-member", "0"),
    ])
    def test_all_members_empty_is_0_without_traceback(self, argv,
                                                      empty_members, tmp_path):
        fam = tmp_path / "empty.family"
        r = mnv("gen", "--n", "3", "--seed", "1", *empty_members,
                "--out", str(fam))
        assert r.returncode == 0
        r = mnv(*(str(fam) if a == "{input}" else a for a in argv))
        assert r.returncode == 0
        assert "Traceback" not in r.stderr
        assert "FAIL" not in r.stdout

    @pytest.mark.parametrize("argv,code", [
        (("helly", "{input}"), 1),
        (("verify", "helly", "{input}"), 1),
        (("verify", "projection", "{input}"), 0),
    ])
    def test_family_without_members_without_traceback(self, argv, code,
                                                      tmp_path):
        # the empty subfamily intersects, so the Helly precondition fails
        # and verify projection has no Helly check to make
        fam = tmp_path / "none.family"
        fam.write_text("family v1 box 1\n")
        r = mnv(*(str(fam) if a == "{input}" else a for a in argv))
        assert r.returncode == code
        assert "Traceback" not in r.stderr
        if code:
            assert r.stderr.strip() == "mnv: family has non-empty intersection"
        else:
            assert "helly" not in r.stdout and "FAIL" not in r.stdout

    def test_long_family_is_capped_without_traceback(self, tmp_path):
        # 1500 empty members: the total intersection, over 1500 indices, is
        # built one prefix at a time, and the Helly cap refuses
        fam = tmp_path / "long.family"
        fam.write_text("family v1 box 1\n" + "member\n" * 1500)
        r = mnv("verify", "projection", str(fam))
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == ("mnv: member count 1500 exceeds cap 16 (at most "
                            "2^1500 subsets); raise --cap\n")

    @pytest.mark.parametrize("command,text,cited", [
        ("homology", "complex v1\n0\n1\n0 1\n0 1\n1 1\n",
         ":5: simplex '0 1' repeats line 4"),
        ("homology", "complex v1\n0\n1\n1 0\n0 1\n",
         ":5: simplex '0 1' repeats line 4"),
        ("homology", "complex v1\n0\n1 1\n", ":3: repeated vertex"),
        ("nerve", "family v1 subcomplex 1\ncomplex v1\n0\n1\n0 1\n0 1\n"
                  "end complex\nmember 0 1 2\n",
         ":6: simplex '0 1' repeats line 5"),
    ])
    def test_repeated_complex_line_is_2(self, command, text, cited, tmp_path):
        # a repeated simplex would shift the ids of the lines after it, and
        # a repeated vertex is no simplex: both are refused, citing the line
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = mnv_in_process(command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"mnv: {path}{cited}") and err.count("\n") == 1

    @pytest.mark.parametrize("command,text,cited", [
        ("nerve", "family v1 subcomplex 1\ncomplex v1\n0\n1\n0 1\n"
                  "end complex\nmember 2\n",
         ":7: member 0: not face-closed at [0, 1]"),
        ("nerve", "family v1 subcomplex 1\ncomplex v1\n0\n1\n0 1\n"
                  "end complex\nmember 0 1 2\n\nmember 1 2\n",
         ":9: member 1: not face-closed at [0, 1]"),
        ("nerve", "family v1 subcomplex 1\ncomplex v1\n0\n0 1\n"
                  "end complex\nmember 0\n",
         ":4: complex not closed downward: missing face of [0, 1]"),
        ("homology", "complex v1\n0 1\n",
         ":2: complex not closed downward: missing face of [0, 1]"),
    ])
    def test_closure_error_cites_its_line(self, command, text, cited,
                                          tmp_path):
        # a member or a simplex that misses a face is cited at its own line
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = mnv_in_process(command, str(path))
        assert (code, out) == (2, "")
        assert err == f"mnv: {path}{cited}\n"

    def test_misspelt_gamma_dim_is_2(self, tmp_path):
        # only the exact 'gamma-dim' token opens that line; any other is an
        # unexpected line, refused like the rest
        path = tmp_path / "bad.family"
        path.write_text("family v1 box 1\ngamma-dimXYZ 3\nmember\nbox 0 1\n")
        assert mnv_in_process("helly", str(path)) == (
            2, "", f"mnv: {path}:2: expected 'member' or 'box', got 'gamma-dimXYZ'\n")

    @pytest.mark.parametrize("text,cited", [
        ("poset v1\n0 -1\n1 0 0\n2 0 0\n3 1 1 1\n",
         ":5: cell 3: repeated vertex (has 1 distinct vertices, needs 2)"),
        ("poset v1\n0 -1\n1 0 0\n\n2 1 0 0\n",
         ":5: cell 2: face 0 has dimension -1, expected 0"),
        ("\nposet v1\n0 0\n",
         ":2: missing least element: no (-1)-dimensional cell declared"),
    ])
    def test_poset_error_cites_its_line(self, text, cited, tmp_path):
        # an invalid cell is cited at its own line; the missing least
        # element, which is no one cell's fault, at the header's
        path = tmp_path / "p.poset"
        path.write_text(text)
        code, out, err = mnv_in_process("homology", str(path))
        assert (code, out) == (2, "")
        assert err == f"mnv: {path}{cited}\n"

    @pytest.mark.parametrize("command,text,cited", [
        ("homology", "poset v1\n0 -1\n0_1 0 0\n",
         ":3: ids and dimensions must be integers"),
        ("homology", "poset v1\n0 -1\n\u0661 0 0\n",
         ":3: ids and dimensions must be integers"),
        ("homology", "complex v1\n0 1_0\n", ":2: vertex ids must be integers"),
        ("homology", "complex v1\n0\n\u0661\n",
         ":3: vertex ids must be integers"),
        ("nerve", "family v1 subcomplex 0\ncomplex v1\n0\nend complex\n"
                  "member 0_0\n", ":5: simplex ids must be integers"),
        ("nerve", "family v1 subcomplex 0\ncomplex v1\n0_0\nend complex\n"
                  "member 0\n", ":3: vertex ids must be integers"),
        ("nerve", "family v1 box 1\nmember\nbox 0 1_0\n",
         ":3: expected rational p/q, got '1_0'"),
        ("nerve", "family v1 box 1\nmember\nbox 0/\u0661 1\n",
         ":3: expected rational p/q, got '0/\u0661'"),
        ("nerve", "family v1 box 1_0\nmember\nbox 0 1\n",
         ":1: ambient descriptor must be an integer"),
        ("nerve", "family v1 box 1\ngamma-dim \u0661\nmember\nbox 0 1\n",
         ":2: gamma-dim must be an integer"),
    ])
    def test_python_only_integer_spellings_are_2(self, command, text, cited,
                                                 tmp_path):
        # int() reads '1_0' as 10 and non-ASCII digits as digits; no format
        # takes either, and the field's own message cites the line
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = mnv_in_process(command, str(path))
        assert (code, out) == (2, "")
        assert err == f"mnv: {path}{cited}\n"

    def test_signs_and_labels_stay_accepted(self, tmp_path):
        # a signed id still parses, and a poset label may be any text
        for text in ("poset v1\n+0 -1\n1 +0 0 | \u0661\n",
                     "complex v1\n+0\n"):
            path = tmp_path / "ok.txt"
            path.write_text(text, encoding="utf-8")
            assert mnv_in_process("homology", str(path)) == (0, "", "")

    def test_cap_refusal_is_3_and_names_cap(self, tmp_path):
        p = tmp_path / "big.poset"
        lines = ["poset v1", "0 -1"] + [f"{i} 0 0" for i in range(1, 13)]
        p.write_text("\n".join(lines) + "\n")
        for cmd in ("leray", "j-index"):
            r = mnv(cmd, str(p), "--cap", "10")
            assert r.returncode == 3
            assert r.stdout == ""
            assert r.stderr == ("mnv: vertex count 12 exceeds cap 10 (at most "
                                "4096 subsets); raise --cap or use sampling "
                                "mode\n")

    @pytest.mark.parametrize("argv,refusal", [
        (("helly",), "member count 3 exceeds cap 2 (at most 8 subsets)"),
        (("verify", "helly"), "member count 3 exceeds cap 2 (at most 8 subsets)"),
        (("verify", "projection"),
         "vertex count 3 exceeds cap 2 (at most 8 subsets)"),
    ])
    def test_cap_refusal_without_sampling_mode(self, argv, refusal):
        # these commands take no --sample, so the hint names only --cap;
        # the Helly walk stops above empty intersections and the L walk
        # skips dominated subsets, so each count is an upper bound
        r = mnv(*argv, str(FIXTURES / "intervals.family"), "--cap", "2")
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr == f"mnv: {refusal}; raise --cap\n"

    def test_projection_cap_refuses_before_building(self, tmp_path):
        # 40 one-box members: M has 40 vertices and some 87k cells, which
        # would exhaust 1 GiB before the walk's cap refused; the cap is
        # checked on the members' component count first
        fam = tmp_path / "wide.family"
        r = mnv("gen", "--backend", "box", "--n", "40", "--ambient-dim", "1",
                "--boxes-per-member", "1", "--seed", "1", "--out", str(fam))
        assert r.returncode == 0

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        path = os.pathsep.join(filter(None, (str(SRC),
                                             os.environ.get("PYTHONPATH"))))
        t = time.perf_counter()
        r = subprocess.run(
            [sys.executable, "-m", "multinerve.cli", "verify", "projection",
             str(fam)], capture_output=True, text=True, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == ("mnv: vertex count 40 exceeds cap 16 "
                            "(at most 1099511627776 subsets); raise --cap\n")
        assert time.perf_counter() - t < 10

    def test_check_failure_is_1(self, tmp_path):
        fam = tmp_path / "circle.family"
        from multinerve.fixtures import circle_member_family
        from multinerve.formats import write_family
        fam.write_text(write_family(circle_member_family()))
        r = mnv("check-acyclic", str(fam), "--s", "0")
        assert r.returncode == 1
        assert "acyclic_with_slack = false" in r.stdout
        r = mnv("check-acyclic", str(fam), "--s", "3")
        assert r.returncode == 0


class TestVerify:
    def test_verify_helly(self):
        r = mnv("verify", "helly", str(FIXTURES / "intervals.family"),
                "--s", "0", "--t", "1")
        assert r.returncode == 0
        assert "CHECK helly_bound: 2 <= 2 : PASS" in r.stdout

    def test_verify_projection(self):
        r = mnv("verify", "projection", str(FIXTURES / "two_arcs.family"),
                "--t", "1", "--s", "0")
        assert r.returncode == 0
        assert "CHECK projection_bound: 0 <= 5 : PASS" in r.stdout

    def test_verify_multinerve_blown_tetrahedron(self):
        r = mnv("verify", "multinerve", str(FIXTURES / "blown_tetrahedron.family"),
                "--s", "0")
        assert r.returncode == 0
        assert "result = PASS" in r.stdout

    def test_verify_multinerve_requires_s(self):
        r = mnv("verify", "multinerve", str(FIXTURES / "blown_tetrahedron.family"))
        assert r.returncode == 2

    def test_artifacts_dir_is_unknown(self, tmp_path):
        # J = L, so there are no L < J candidates to archive
        code, out, err = mnv_in_process(
            "verify", "projection", str(FIXTURES / "two_arcs.family"),
            "--artifacts-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --artifacts-dir" in err

    def test_precondition_failure_is_1(self, tmp_path):
        fam = tmp_path / "circle.family"
        from multinerve.fixtures import circle_member_family
        from multinerve.formats import write_family
        fam.write_text(write_family(circle_member_family()))
        r = mnv("verify", "multinerve", str(fam), "--s", "0")
        assert r.returncode == 1
        assert "slack" in r.stderr

    @pytest.mark.parametrize("command", ["multinerve", "projection", "helly"])
    def test_slack_refusal_is_one_line(self, tmp_path, command):
        # member 0 is a square ring, with a hole, and misses member 1, so
        # the family has empty intersection and is not acyclic at slack 0
        fam = tmp_path / "ring.family"
        fam.write_text("family v1 box 2\nmember\n"
                       "box 0/1 3/1 0/1 1/1\nbox 2/1 3/1 0/1 3/1\n"
                       "box 0/1 3/1 2/1 3/1\nbox 0/1 1/1 0/1 3/1\n"
                       "member\nbox 5/1 6/1 5/1 6/1\n")
        assert mnv_in_process("verify", command, str(fam), "--s", "0") == (
            1, "", "mnv: family is not acyclic with slack 0: subfamily (0,) "
            "has nonzero reduced homology in dimension 1\n")


class TestSubcommands:
    def test_sd(self):
        r = mnv("sd", str(FIXTURES / "double_edge.poset"))
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "complex v1"
        assert len([l for l in lines[1:] if len(l.split()) == 2]) == 4

    def test_leray_and_j(self):
        r = mnv("leray", str(FIXTURES / "double_edge.poset"))
        assert "value 2" in r.stdout and "mode exact" in r.stdout
        r = mnv("j-index", str(FIXTURES / "double_edge.poset"))
        assert "value 2" in r.stdout and "sigma=0" in r.stdout

    def test_leray_sampled_mode(self):
        r = mnv("leray", str(FIXTURES / "double_edge.poset"), "--sample", "20",
                "--seed", "1")
        assert r.returncode == 0 and "mode sampled" in r.stdout

    def test_nerve_and_multinerve(self):
        r = mnv("nerve", str(FIXTURES / "two_arcs.family"))
        assert r.returncode == 0 and r.stdout.startswith("complex v1")
        r = mnv("multinerve", str(FIXTURES / "two_arcs.family"))
        assert r.returncode == 0 and r.stdout.startswith("poset v1")
        assert "| A=0,1" in r.stdout
        r2 = mnv("multinerve", str(FIXTURES / "two_arcs.family"), "--t", "2")
        assert r2.returncode == 0

    def test_helly(self):
        r = mnv("helly", str(FIXTURES / "corridor.family"))
        assert r.returncode == 0
        assert "h = 3" in r.stdout

    def test_gen_is_deterministic(self):
        a = mnv("gen", "--backend", "box", "--n", "3", "--seed", "7")
        b = mnv("gen", "--backend", "box", "--n", "3", "--seed", "7")
        assert a.returncode == 0 and a.stdout == b.stdout

    def test_gen_subcomplex_parses_back(self, tmp_path):
        out = tmp_path / "g.family"
        r = mnv("gen", "--backend", "subcomplex", "--n", "3", "--seed", "2",
                "--grid", "3", "--out", str(out))
        assert r.returncode == 0
        r2 = mnv("check-acyclic", str(out), "--s", "3")
        assert r2.returncode in (0, 1)

    def test_version_lists_formats(self):
        r = mnv("--version")
        assert r.returncode == 0
        assert "poset.v1" in r.stdout and "report.v1" in r.stdout


class TestReportFiles:
    def test_verify_out_is_append_only(self, tmp_path):
        out = tmp_path / "runs.report"
        for _ in range(2):
            r = mnv("verify", "helly", str(FIXTURES / "intervals.family"),
                    "--s", "0", "--out", str(out))
            assert r.returncode == 0
        assert out.read_text().count("report v1") == 2

    def test_result_line_only_on_verify_reports(self, tmp_path):
        # helly and check-acyclic write report.v1 without a result line; a
        # verify report writes one even when no dimension is left to check
        from multinerve.fixtures import circle_member_family
        from multinerve.formats import write_family
        fam = tmp_path / "circle.family"
        fam.write_text(write_family(circle_member_family()))
        head = "report v1\ninstance = dd6f89463b38\n"
        assert mnv_in_process("check-acyclic", str(fam), "--s", "0") == (
            1, head + "s = 0\nacyclic_with_slack = false\n"
            "violation_subset = 0\nviolation_dim = 1\n", "")
        assert mnv_in_process("check-acyclic", str(fam), "--s", "3") == (
            0, head + "s = 3\nacyclic_with_slack = true\n", "")
        assert mnv_in_process("helly", str(FIXTURES / "corridor.family")) == (
            0, "report v1\ninstance = f01ca7c7cf70\nh = 3\n"
            "witness = 0,1,2\n", "")
        assert mnv_in_process("verify", "multinerve",
                              str(FIXTURES / "intervals.family"),
                              "--s", "9") == (
            0, "report v1\ninstance = 9e873b677d10\ns = 9\n"
            "betti_multinerve = 0\nbetti_union = 0\nresult = PASS\n", "")


class TestRoundTripThroughCli:
    def test_multinerve_output_feeds_homology(self, tmp_path):
        out = tmp_path / "m.poset"
        r = mnv("multinerve", str(FIXTURES / "two_arcs.family"), "--out", str(out))
        assert r.returncode == 0
        r2 = mnv("homology", str(out))
        assert r2.returncode == 0 and r2.stdout == "1 1\n"

    def test_member_ids_count_the_canonical_order(self, tmp_path):
        # member ids count T's simplices by dimension, then sorted vertex
        # list, not the lines of the complex block: a block listed out of
        # that order reads as the same family as its canonical rewrite
        canonical = tmp_path / "canonical.family"
        assert mnv_in_process("gen", "--backend", "subcomplex", "--n", "4",
                              "--seed", "2", "--grid", "2",
                              "--out", str(canonical))[0] == 0
        head, rest = canonical.read_text().split("complex v1\n")
        block, members = rest.split("end complex\n")
        lines = block.splitlines(keepends=True)
        # the block reversed, and each simplex's vertices too
        shuffled = tmp_path / "shuffled.family"
        shuffled.write_text(head + "complex v1\n" + "".join(
            " ".join(reversed(line.split())) + "\n" for line in lines[::-1])
            + "end complex\n" + members)
        for argv in (("verify", "multinerve", "{}", "--s", "0"),
                     ("verify", "projection", "{}", "--t", "2"),
                     ("multinerve", "{}"), ("nerve", "{}")):
            want, got = (mnv_in_process(*(str(p) if a == "{}" else a
                                          for a in argv))
                         for p in (canonical, shuffled))
            # the verify reports open with the instance id
            assert want[0] == 0 and got == want, argv


class TestInProcess:
    """``main`` reuses one parser per process; calls must not leak state."""

    USAGE_ERROR = ("leray", str(FIXTURES / "double_edge.poset"), "--cap", "-1")
    HOMOLOGY = ("homology", str(FIXTURES / "double_edge.poset"))

    def test_usage_error_around_a_valid_call(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [self.USAGE_ERROR, self.HOMOLOGY, self.USAGE_ERROR]
        results = [mnv_in_process(*argv) for argv in calls]
        for argv, res in zip(calls, results):
            alone = mnv(*argv)
            assert res == (alone.returncode, alone.stdout, alone.stderr)
        assert results[0] == results[2] and results[0][0] == 2
        assert results[1] == (0, "1 1\n", "")

    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
    def test_help_is_the_same_twice(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        first, second = mnv_in_process(*argv), mnv_in_process(*argv)
        assert first == second
        assert first[0] == 0 and first[1].startswith("usage: mnv")
        alone = mnv(*argv)
        assert first == (alone.returncode, alone.stdout, alone.stderr)


# each subcommand's options, --out aside
_OPTIONS = {
    "homology": [], "sd": [],
    "leray": ["--cap", "--sample", "--seed"],
    "j-index": ["--cap", "--sample", "--seed"],
    "nerve": ["--gamma-dim"], "multinerve": ["--t", "--gamma-dim"],
    "helly": ["--cap", "--gamma-dim"], "check-acyclic": ["--s", "--gamma-dim"],
    "verify": ["--s", "--t", "--cap", "--gamma-dim"],
    "gen": ["--backend", "--n", "--seed", "--ambient-dim",
            "--boxes-per-member", "--grid", "--stars-per-member"],
}
_WORDS = [*_OPTIONS, *sorted({o for opts in _OPTIONS.values() for o in opts}),
          "projection", "box", "subcomplex", "--out", "--with-ring", "--help",
          "--version", "-x"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_main_exits_with_a_contract_code(tmp_path_factory, data):
    # fresh copies of the fixtures each time, since --out may overwrite one
    work = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(FIXTURES, work, dirs_exist_ok=True)
    paths = sorted(str(work / f.name) for f in FIXTURES.iterdir())
    paths += [str(work), str(work / "missing.poset"), str(work / "out")]
    number = st.integers(-1, 5).map(str)

    def value(option):
        if option == "--backend":
            return st.sampled_from(["box", "subcomplex"])
        if option == "--out":
            return st.sampled_from(paths)
        return number

    # mostly well-formed: a command, its positionals and some of its
    # options, each with a value; then maybe one token from anywhere
    command = data.draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command == "verify":
        argv.append(data.draw(st.sampled_from(["multinerve", "projection",
                                               "helly"])))
    if command != "gen":
        argv.append(data.draw(st.sampled_from(paths)))
    options = st.lists(st.sampled_from(_OPTIONS[command] + ["--out"]),
                       unique=True)
    for option in data.draw(options):
        argv += [option, data.draw(value(option))]
    argv += data.draw(st.lists(st.sampled_from(_WORDS + paths) | number,
                               max_size=1))
    code, _, err = mnv_in_process(*argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


class TestBenchTracer:
    def test_tracer_installs_and_counts_a_call(self):
        # the benchmark's tracer wraps program functions by name: a name it
        # reads that leaves the program fails here, not only in the
        # benchmark's own self-test
        child = (
            "import contextlib, io, json, sys\n"
            f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "import multinerve.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['verify', 'projection', "
            f"{str(FIXTURES / 'two_arcs.family')!r}, '--t', '2'])\n"
            "print(json.dumps([code, tracer.pass_metrics(0, 1.0)]))\n")
        r = subprocess.run([sys.executable, "-c", child], capture_output=True,
                           text=True, timeout=120)
        assert r.returncode == 0, r.stderr
        code, metrics = json.loads(r.stdout)
        assert code == 0
        assert metrics["cli.main.calls"] == 1
        assert metrics["nerve.validate_map.calls"] == 2
        assert metrics["leray.leray_number.calls"] >= 1


def _primes_family_text() -> str:
    """A 10-member box family of R^1 whose 120 endpoints use the first 60
    primes as denominators, each in lowest terms, so its grid's least
    common denominator is their product, a 384-bit integer."""
    primes, k = [], 2
    while len(primes) < 60:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    rng, lines = random.Random(0), ["family v1 box 1"]
    for t in range(30):
        if t % 3 == 0:
            lines.append("member")
        a = rng.randrange(12)
        b = a + rng.randrange(1, 5)
        p, q = primes[2 * t], primes[2 * t + 1]
        lines.append(f"box {a * p + 1}/{p} {b * q + 1}/{q}")
    return "\n".join(lines) + "\n"


def test_large_grid_reports_unchanged(tmp_path):
    # a grid as fine as the endpoints' denominators make it, L of 384
    # bits: the reports are those recorded with Fraction endpoints
    path = tmp_path / "primes.family"
    path.write_text(_primes_family_text())
    assert mnv_in_process("verify", "multinerve", str(path), "--s", "0") == (
        0, "report v1\ninstance = aef8c961a14d\ns = 0\nbetti_multinerve = 0\n"
        "betti_union = 0\nCHECK multinerve_theorem_dim_0: 0 == 0 : PASS\n"
        "result = PASS\n", "")
    assert mnv_in_process("helly", str(path)) == (
        0, "report v1\ninstance = aef8c961a14d\nh = 4\n"
        "witness = 0,2,3,6\n", "")


def test_box_calls_make_no_fraction_comparison(tmp_path, monkeypatch):
    # a box family's oracle meets, compares and hashes ints on its grid:
    # parsing it and running these calls on it compare and hash no Fraction
    code, text, _ = mnv_in_process("gen", "--backend", "box", "--n", "6",
                                   "--ambient-dim", "2", "--seed", "3")
    path = tmp_path / "f.family"
    path.write_text(text + "member\nbox 1/3 5/7 -2/5 11/3\n")
    counts = collections.Counter()
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
        def spy(*args, _real=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(Fraction, name, spy)
    assert Fraction(1, 2) < Fraction(2, 3) and counts == {"__lt__": 1}
    counts.clear()
    for argv in (("verify", "multinerve", str(path), "--s", "0"),
                 ("helly", str(path)),
                 ("verify", "projection", str(path), "--t", "2")):
        assert mnv_in_process(*argv)[0] == 0, argv
    assert counts == {}


@pytest.mark.parametrize("workload", sorted(
    p.stem for p in (BENCH / "reference").glob("*.json")))
def test_bench_reference_outputs(workload, tmp_path, monkeypatch):
    # every box instance of the oracle pool, the first four box and four
    # subcomplex instances of each other family pool, and the first two
    # spaces, replayed as the benchmark runs them: a change to the recorded
    # exit codes or stdout, which the benchmark counts as failed calls,
    # fails here first
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import (WORKLOADS, RefClock, command_key, digest,
                           input_text, item_commands, load_pool, run_call)

    from multinerve.families import region_is_empty
    from multinerve.formats import parse_family
    wl, clock, items = WORKLOADS[workload], RefClock(), []
    pool = load_pool(workload)["items"]
    for kind in ("box-", "subcomplex-"):
        of_kind = [item for item in pool if item["id"].startswith(kind)]
        items += of_kind if (workload, kind) == ("oracle", "box-") else of_kind[:4]
    assert len(items) == {"oracle": 26, "projection": 8}.get(workload, 0)
    for item in items or pool[:2]:
        text = input_text(item, main, clock)
        assert digest(text) == item["input_digest"], item["id"]
        space = "space_seed" in item["input"]
        path = tmp_path / f"{item['id']}.{'poset' if space else 'family'}"
        path.write_text(text, encoding="utf-8")
        empty = bool(wl.if_empty) and region_is_empty(
            F := parse_family(text, str(path)), range(len(F)))
        for tpl in item_commands(wl, empty):
            res = run_call(main, [str(path) if a == "{input}" else a
                                  for a in tpl], clock)
            assert res.error is None, (item["id"], tpl, res.error)
            assert [res.code, digest(res.stdout)] == \
                item["refs"][command_key(tpl)], (item["id"], tpl)
