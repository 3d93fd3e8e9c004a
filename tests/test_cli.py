"""CLI contract: subcommands, exit codes, deterministic reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"


def mnv(*args, cwd=None):
    # the child finds the package in this checkout's src/, installed or not
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "multinerve.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


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
    ])
    def test_bad_argument_or_path_is_2_without_traceback(self, argv, tmp_path):
        latin1 = tmp_path / "latin1.poset"
        latin1.write_bytes("poset v1\n0 -1 caf\u00e9\n".encode("latin-1"))
        r = mnv(*(str(latin1) if a == "{latin1}" else a for a in argv))
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

    def test_cap_refusal_is_3_and_names_cap(self, tmp_path):
        p = tmp_path / "big.poset"
        lines = ["poset v1", "0 -1"] + [f"{i} 0 0" for i in range(1, 13)]
        p.write_text("\n".join(lines) + "\n")
        for cmd in ("leray", "j-index"):
            r = mnv(cmd, str(p), "--cap", "10")
            assert r.returncode == 3
            assert r.stdout == ""
            assert r.stderr == ("mnv: vertex count 12 exceeds cap 10 (4096 "
                                "subsets); raise --cap or use sampling mode\n")

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

    def test_precondition_failure_is_1(self, tmp_path):
        fam = tmp_path / "circle.family"
        from multinerve.fixtures import circle_member_family
        from multinerve.formats import write_family
        fam.write_text(write_family(circle_member_family()))
        r = mnv("verify", "multinerve", str(fam), "--s", "0")
        assert r.returncode == 1
        assert "slack" in r.stderr


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


class TestRoundTripThroughCli:
    def test_multinerve_output_feeds_homology(self, tmp_path):
        out = tmp_path / "m.poset"
        r = mnv("multinerve", str(FIXTURES / "two_arcs.family"), "--out", str(out))
        assert r.returncode == 0
        r2 = mnv("homology", str(out))
        assert r2.returncode == 0 and r2.stdout == "1 1\n"
