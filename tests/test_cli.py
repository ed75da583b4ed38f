import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdom import (
    Graph,
    Mode,
    SignFunction,
    SolveResult,
    ThreeSatFormula,
    cycle,
    emit_certificate,
    emit_graph,
    one_factorization,
    path,
)
from sgdom import cli
from sgdom.cli import main

from conftest import loop_cnf_text


@pytest.fixture
def c5_path(tmp_path):
    p = tmp_path / "c5.graph"
    p.write_text(emit_graph(cycle(5)), encoding="utf-8")
    return str(p)


class TestSolve:
    def test_brute_text(self, c5_path, capsys):
        code = main(["solve", "--k", "1", "--mode", "closed", "--algo", "brute", c5_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma_ks = 3" in out
        assert "s sgd-cert 5 1 closed" in out

    def test_bnb_agrees(self, c5_path, capsys):
        code = main(["solve", "--k", "1", "--mode", "closed", "--algo", "bnb", c5_path])
        assert code == 0
        assert "sigma_ks = 3" in capsys.readouterr().out

    def test_upper(self, tmp_path, capsys):
        from sgdom import complete

        p = tmp_path / "k4.graph"
        p.write_text(emit_graph(complete(4)), encoding="utf-8")
        code = main(["solve", "--k", "1", "--param", "upper", str(p)])
        assert code == 0
        assert "gamma_ks = 2" in capsys.readouterr().out

    def test_upper_total_is_usage_error(self, c5_path, capsys):
        code = main(["solve", "--k", "1", "--param", "upper", "--mode", "total", c5_path])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_structured_matches_text(self, c5_path, capsys):
        main(["solve", "--k", "1", "--algo", "brute", c5_path])
        text = capsys.readouterr().out
        code = main(
            ["solve", "--k", "1", "--algo", "brute", "--format", "structured", c5_path]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["parameter"] == "sigma_ks"
        assert record["value"] == 3
        assert record["k"] == 1 and record["mode"] == "closed"
        assert record["status"] == "optimal"
        assert len(record["certificate"]) == 5
        assert record["nodes_explored"] == 32
        assert f"sigma_ks = {record['value']}" in text
        assert set(record) == {
            "parameter", "k", "mode", "value", "status", "certificate",
            "nodes_explored", "bound_num", "bound_den",
        }

    def test_infeasible_exit_code(self, tmp_path, capsys):
        p = tmp_path / "k1.graph"
        p.write_text("p sgd 1 0\n", encoding="utf-8")
        code = main(["solve", "--k", "1", "--mode", "total", "--algo", "brute", str(p)])
        assert code == 1

    def test_cap_exit_code(self, c5_path, capsys):
        code = main(
            ["solve", "--k", "1", "--algo", "brute", "--max-brute-n", "3", c5_path]
        )
        assert code == 3

    def test_brute_refuses_an_order_it_cannot_tabulate(self, tmp_path, capsys):
        p = tmp_path / "c60.graph"
        p.write_text(emit_graph(cycle(60)), encoding="utf-8")
        code = main(["solve", "--k", "1", "--algo", "brute", "--max-brute-n", "100", str(p)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "status = cap_exceeded\nnodes = 0\n"
        assert captured.err == ""

    @pytest.mark.parametrize("algo", ["brute", "bnb"])
    def test_structured_certificate_of_the_empty_graph(self, tmp_path, capsys, algo):
        p = tmp_path / "empty.graph"
        p.write_text("p sgd 0 0\n", encoding="utf-8")
        code = main(["solve", "--k", "1", "--algo", algo, "--format", "structured", str(p)])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (record["status"], record["value"], record["certificate"]) == ("optimal", 0, [])

    def test_output_file(self, c5_path, tmp_path, capsys):
        out = tmp_path / "result.txt"
        code = main(["solve", "--k", "1", "--algo", "brute", "-o", str(out), c5_path])
        assert code == 0
        assert "sigma_ks = 3" in out.read_text(encoding="utf-8")


class TestVerify:
    def test_feasible(self, c5_path, tmp_path, capsys):
        cert = tmp_path / "c.cert"
        f = SignFunction((-1, 1, 1, 1, 1))
        cert.write_text(emit_certificate(f, 1, Mode.CLOSED), encoding="utf-8")
        code = main(["verify", "--cert", str(cert), c5_path])
        assert code == 0
        assert "feasible = yes" in capsys.readouterr().out

    def test_infeasible_lists_violations(self, tmp_path, capsys):
        g = tmp_path / "c4.graph"
        g.write_text(emit_graph(cycle(4)), encoding="utf-8")
        cert = tmp_path / "c.cert"
        f = SignFunction((1, 1, 1, -1))
        cert.write_text(emit_certificate(f, 1, Mode.TOTAL), encoding="utf-8")
        code = main(["verify", "--cert", str(cert), str(g)])
        out = capsys.readouterr().out
        assert code == 1
        assert "violations = 1 3" in out

    def test_minimal_flag(self, tmp_path, capsys):
        from sgdom import complete

        g = tmp_path / "k3.graph"
        g.write_text(emit_graph(complete(3)), encoding="utf-8")
        cert = tmp_path / "c.cert"
        cert.write_text(
            emit_certificate(SignFunction((1, 1, 1)), 1, Mode.CLOSED), encoding="utf-8"
        )
        code = main(["verify", "--cert", str(cert), "--minimal", str(g)])
        assert code == 1
        assert "minimal = no" in capsys.readouterr().out

    def test_minimal_verifies_once(self, tmp_path, c5_path, capsys, monkeypatch):
        """`verify --minimal` checks the certificate once, and minimality
        reads the sums of that check: one `verify` call whether f is
        minimal, not minimal or infeasible."""
        from sgdom import certify

        original, calls = certify.verify, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(certify, "verify", counted)
        monkeypatch.setattr(cli, "verify", counted)
        cert = tmp_path / "c.cert"
        for values, code, last in [
            ((1, -1, 1, 1, 1), 0, "minimal = yes"),
            ((1,) * 5, 1, "offending = 1"),
            ((1, -1, -1, 1, 1), 1, "violations = 2 3"),
        ]:
            cert.write_text(emit_certificate(SignFunction(values), 1, Mode.CLOSED))
            calls.clear()
            assert main(["verify", "--cert", str(cert), "--minimal", c5_path]) == code
            assert capsys.readouterr().out.splitlines()[-1] == last
            assert len(calls) == 1

    @pytest.mark.parametrize("sign", [1, -1], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("flag", [True, False], ids=["mode-flag", "mode-header"])
    def test_minimal_in_total_mode_is_usage_error(self, tmp_path, capsys, sign, flag):
        # Minimality is defined only in closed mode, whether the total mode
        # comes from --mode or from the certificate header, and whether or
        # not the certificate is feasible (all +1 is, all -1 is not, on P3).
        g = tmp_path / "p3.graph"
        g.write_text(emit_graph(path(3)), encoding="utf-8")
        cert = tmp_path / "c.cert"
        header_mode = Mode.CLOSED if flag else Mode.TOTAL
        cert.write_text(
            emit_certificate(SignFunction((sign,) * 3), 1, header_mode), encoding="utf-8"
        )
        argv = ["verify", "--cert", str(cert), "--minimal", str(g)]
        code = main(argv + ["--mode", "total"] * flag)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: minimality is only defined in closed mode\n"


class TestOutputFormats:
    """solve and verify build only the output of the format they print; the
    bytes printed are pinned."""

    @pytest.fixture
    def certs(self, tmp_path):
        paths = {}
        for name, values in [("all-plus", (1,) * 5), ("two-minus", (1, -1, -1, 1, 1))]:
            paths[name] = tmp_path / f"{name}.cert"
            paths[name].write_text(emit_certificate(SignFunction(values), 1, Mode.CLOSED))
        return paths

    def test_text(self, c5_path, certs, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_record", pytest.fail)
        assert main(["solve", "--k", "1", "--algo", "brute", c5_path]) == 0
        assert main(["verify", "--cert", str(certs["all-plus"]), "--minimal", c5_path]) == 1
        assert main(["verify", "--cert", str(certs["two-minus"]), c5_path]) == 1
        assert capsys.readouterr().out == (
            "sigma_ks = 3\nstatus = optimal\nnodes = 32\ns sgd-cert 5 1 closed\n"
            "v 1 -1\nv 2 +1\nv 3 +1\nv 4 +1\nv 5 +1\n"
            "feasible = yes\nweight = 5\nmin_slack = 2\nminimal = no\noffending = 1\n"
            "feasible = no\nweight = 1\nmin_slack = -2\nviolations = 2 3\n"
        )

    def test_structured(self, c5_path, certs, capsys, monkeypatch):
        monkeypatch.setattr(cli, "emit_certificate", pytest.fail)
        argv = ["--format", "structured", c5_path]
        assert main(["solve", "--k", "1", "--algo", "brute", *argv]) == 0
        assert main(["verify", "--cert", str(certs["all-plus"]), "--minimal", *argv]) == 1
        out = capsys.readouterr().out
        base = dict.fromkeys(["bound_den", "bound_num", "nodes_explored"])
        records = [
            {**base, "certificate": [-1, 1, 1, 1, 1], "k": 1, "mode": "closed",
             "nodes_explored": 32, "parameter": "sigma_ks", "status": "optimal", "value": 3},
            {**base, "certificate": [1] * 5, "k": 1, "mode": "closed",
             "parameter": "verify", "status": "not_minimal", "value": 5},
        ]
        assert out == "".join(json.dumps(r, indent=2, sort_keys=True) + "\n" for r in records)


class TestBound:
    def test_profile(self, capsys):
        code = main(
            ["bound", "--k", "1", "--mode", "closed", "--n", "12", "--delta", "2", "--Delta", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound = 4 (24/6)" in out
        assert "effective = 4" in out

    def test_graph_input(self, c5_path, capsys):
        code = main(["bound", "--k", "1", c5_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound = 5/3" in out
        assert "effective = 3" in out

    def test_structured(self, capsys):
        code = main(
            [
                "bound", "--k", "1", "--n", "12", "--delta", "2", "--Delta", "3",
                "--format", "structured",
            ]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["bound_num"] == 4 and record["bound_den"] == 1
        assert record["value"] == 4

    def test_missing_profile_is_usage_error(self, capsys):
        assert main(["bound", "--k", "1"]) == 2


class TestGen:
    def test_extremal_files(self, tmp_path, capsys):
        out = tmp_path / "fam"
        code = main(
            [
                "gen", "extremal", "--k", "1", "--delta", "2", "--Delta", "3",
                "--t", "4", "-o", str(out),
            ]
        )
        assert code == 0
        from sgdom import parse_certificate, parse_graph, verify

        g = parse_graph((tmp_path / "fam.graph").read_text(encoding="utf-8"))
        k, mode, f = parse_certificate((tmp_path / "fam.cert").read_text(encoding="utf-8"))
        assert g.n == 12
        assert verify(g, k, mode, f).feasible
        report = (tmp_path / "fam.report").read_text(encoding="utf-8")
        # The bound prints as `sgd bound` prints it: an integer stays "4".
        assert report == "a = 2\nb = 1\nt = 4\n|P| = 8\n|Q| = 4\nbound = 4\nweight = 4\n"
        assert capsys.readouterr().out == report

    def test_extremal_to_stdout(self, capsys):
        code = main(["gen", "extremal", "--k", "1", "--delta", "2", "--Delta", "3", "--t", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith(
            "c a = 2\nc b = 1\nc t = 4\nc |P| = 8\nc |Q| = 4\nc bound = 4\nc weight = 4\n"
        )

    def test_onefactor(self, capsys):
        code = main(["gen", "onefactor", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("n", [2, 4, 8, 10])
    def test_onefactor_writes_the_factorization(self, n, capsys):
        assert main(["gen", "onefactor", "--n", str(n)]) == 0
        assert capsys.readouterr().out == "".join(
            f"round {i}: {' '.join(f'({u + 1},{v + 1})' for u, v in sorted(factor.pairs))}\n"
            for i, factor in enumerate(one_factorization(n), start=1)
        )

    def test_onefactor_writes_round_by_round(self, monkeypatch):
        """Each round is written as soon as it is made, so memory stays flat
        in n: 499 rounds of 250 pairs, about 1.4 MB of text, are sent to a
        sink that keeps nothing."""

        class Sink:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            assert main(["gen", "onefactor", "--n", "500"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bad_t_is_usage_error(self, capsys):
        code = main(
            ["gen", "extremal", "--k", "1", "--delta", "2", "--Delta", "3", "--t", "3"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "kind,size_flag,big,small",
        [
            (["onefactor"], "--n", "4000", "6"),
            (["extremal", "--k", "1", "--delta", "2", "--Delta", "3"], "--t", "10000000", "6"),
        ],
        ids=["onefactor", "extremal"],
    )
    def test_output_beyond_the_reader_cap_is_refused(self, kind, size_flag, big, small, capsys):
        # 4000 vertices make 7,998,000 pairs, and t = 10^7 makes 3*10^7
        # vertices: both above the 2^22 count the readers accept. The counts
        # are worked out before anything is built, so the refusal is at once.
        start = time.perf_counter()
        assert main(["gen", *kind, size_flag, big]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too large" in err
        assert main(["gen", *kind, size_flag, small]) == 0
        assert capsys.readouterr().err == ""


class TestReduce:
    def test_mds_threshold_line(self, tmp_path, capsys):
        g = tmp_path / "p3.graph"
        g.write_text(emit_graph(path(3)), encoding="utf-8")
        code = main(["reduce", "--from", "mds", "--k", "1", str(g)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p sgd 11 " in out
        assert "threshold: r -> 2r + 5" in out
        assert "original(1)" in out

    @pytest.mark.parametrize("g, line", [(path(2), "r -> 2r - 2"), (path(3), "r -> 2r + 0")])
    def test_mtds_threshold_line(self, g, line, tmp_path, capsys):
        src = tmp_path / "g.graph"
        src.write_text(emit_graph(g), encoding="utf-8")
        assert main(["reduce", "--from", "mtds", "--k", "1", str(src)]) == 0
        assert f"threshold: {line}\n" in capsys.readouterr().out

    def test_1in3_files(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n", encoding="utf-8")
        out = tmp_path / "gadget"
        code = main(["reduce", "--from", "1in3", "--k", "1", "-o", str(out), str(cnf)])
        assert code == 0
        assert "threshold: 9" in capsys.readouterr().out
        from sgdom import parse_graph

        g = parse_graph((tmp_path / "gadget.graph").read_text(encoding="utf-8"))
        assert g.n == 15

    def test_negative_literal_is_format_error(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 -2 3 0\n", encoding="utf-8")
        assert main(["reduce", "--from", "1in3", "--k", "1", str(cnf)]) == 2

    @pytest.mark.parametrize(
        "source,k",
        [("mds", 10**23), ("mtds", 10**23), ("1in3", 10**23), ("mds", 141)],
    )
    def test_gadget_beyond_the_reader_cap_is_refused(self, tmp_path, capsys, source, k):
        # From P3, k = 141 makes 424 blocks K_142: 60,211 vertices and
        # 4,245,090 edges, just above the 2^22 count the readers accept. The
        # counts are worked out before anything is built.
        src = tmp_path / "src"
        src.write_text(
            "p cnf 3 1\n1 2 3 0\n" if source == "1in3" else emit_graph(path(3)), encoding="utf-8"
        )
        out = tmp_path / "gadget"
        for extra in ([], ["-o", str(out)]):
            assert main(["reduce", "--from", source, "--k", str(k), str(src), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: output too large")
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("source", ["mds", "mtds", "1in3"])
    def test_k_below_one_is_refused(self, tmp_path, capsys, source):
        src = tmp_path / "src"
        src.write_text(
            "p cnf 3 1\n1 2 3 0\n" if source == "1in3" else emit_graph(path(3)), encoding="utf-8"
        )
        out = tmp_path / "gadget"
        for extra in ([], ["-o", str(out)]):
            assert main(["reduce", "--from", source, "--k", "0", str(src), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: k must be a positive integer\n"
        assert list(tmp_path.iterdir()) == [src]


class TestUsage:
    def test_crash_is_internal_error(self, c5_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "bnb_sigma", crash)
        assert main(["solve", "--k", "1", c5_path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"

    def test_closed_stdout_is_not_a_crash(self):
        """A reader that stops early (`sgd gen ... | head`) ends the writer
        quietly with 128 + SIGPIPE, not as an internal error."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with subprocess.Popen(
            [sys.executable, "-m", "sgdom.cli", "gen", "onefactor", "--n", "600"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:  # about 1.8 MB of rounds, more than a pipe holds
            assert proc.stdout.readline().startswith(b"round 1: (1,600) ")
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait() == 141

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bound_without_graph_or_profile_is_usage_error(self, capsys):
        assert main(["bound", "--k", "1", "--n", "5"]) == 2
        assert capsys.readouterr().err == "error: bound needs a graph file or --n/--delta/--Delta\n"

    def test_unreadable_file(self, capsys):
        assert main(["solve", "--k", "1", "/nonexistent/g.graph"]) == 2

    def test_malformed_graph(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text("p sgd 2 1\ne 1 1\n", encoding="utf-8")
        assert main(["solve", "--k", "1", str(p)]) == 2

    def test_non_utf8_input_is_format_error(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_bytes(b"p sgd 2 1\ne 1 \xff2\n")
        assert main(["solve", "--k", "1", str(p)]) == 2
        assert capsys.readouterr().err.startswith("format error: not UTF-8")

    def test_directory_input_cannot_be_read(self, c5_path, tmp_path, capsys):
        assert main(["solve", str(tmp_path), "--k", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"cannot read {tmp_path}:")
        assert main(["verify", c5_path, "--cert", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot read {tmp_path}:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "{graph}", "--from", "mds", "--k", "1", "-o", "{missing}/x"],
            ["solve", "{graph}", "--k", "1", "-o", "{missing}/x"],
            ["gen", "extremal", "--k", "1", "--delta", "2", "--Delta", "3", "--t", "4",
             "-o", "{missing}/x"],
        ],
    )
    def test_failed_write_is_reported_as_a_write(self, c5_path, tmp_path, capsys, argv):
        missing = tmp_path / "no" / "such" / "dir"
        argv = [arg.format(graph=c5_path, missing=missing) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"cannot write {missing}/x")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--node-budget", "-5", "must be nonnegative, got -5"),
            ("--max-brute-n", "-1", "must be nonnegative, got -1"),
            ("--node-budget", "x", "invalid int value: 'x'"),
            ("--max-brute-n", "1.5", "invalid int value: '1.5'"),
        ],
        ids=["--node-budget--5", "--max-brute-n--1", "--node-budget-x", "--max-brute-n-1.5"],
    )
    def test_negative_cap_is_usage_error(self, c5_path, capsys, flag, value, message):
        assert main(["solve", c5_path, "--k", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {message}" in captured.err


def test_consecutive_calls_share_no_state(c5_path, tmp_path, capsys):
    """main builds its parser once per process; a flag or output file given
    to one call does not carry over to the next."""
    cert = tmp_path / "c.cert"
    cert.write_text(emit_certificate(SignFunction((-1, 1, 1, 1, 1)), 1, Mode.CLOSED))
    verify = ["verify", c5_path, "--cert", str(cert)]
    assert main(verify + ["--minimal"]) == 0
    assert "minimal = " in capsys.readouterr().out
    assert main(verify) == 0
    assert "minimal = " not in capsys.readouterr().out
    out = tmp_path / "solve.txt"
    solve = ["solve", c5_path, "--k", "1"]
    assert main(solve + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(solve) == 0
    assert capsys.readouterr().out == out.read_text()


# Tokens that stress the number paths: beyond int64, at its edge, header
# counts above the reader's cap, and plain junk.
_ODD_TOKENS = st.sampled_from([
    "99999999999999999999", "-99999999999999999999", "9223372036854775807",
    "1000000000000", "4194305", "0", "-1", "+1", "1_0", "x",
])


@st.composite
def _fuzzed_file(draw, n, header, line):
    """Header `header(draw, n)` and the body lines `line(draw, n, i)`; a
    third of the files have one token replaced by an odd one, and some have
    a line too many or too few, or bytes that are not UTF-8."""
    count = n + (draw(st.integers(-1, 1)) if draw(st.integers(0, 7)) == 0 else 0)
    rows = [header(draw, n)] + [line(draw, n, i) for i in range(max(count, 0))]
    if draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_TOKENS)
    text = "\n".join(" ".join(row) for row in rows).encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + b"\xff\xfe" + text[cut:]
    return text


def _graph_file(n):
    """A cycle on n vertices (a malformed graph below 3)."""
    return _fuzzed_file(
        n,
        lambda draw, n: ["p", "sgd", str(n), str(n)],
        lambda draw, n, i: ["e", str(i % max(n, 1) + 1), str((i + 1) % max(n, 1) + 1)],
    )


def _cert_file(n):
    return _fuzzed_file(
        n,
        lambda draw, n: ["s", "sgd-cert", str(n), "1", draw(st.sampled_from(["closed", "total"]))],
        lambda draw, n, i: ["v", str(i + 1), draw(st.sampled_from(["+1", "-1", "1"]))],
    )


@settings(max_examples=100)
@given(n=st.integers(0, 6), k=st.integers(1, 2), minimal=st.booleans(), data=st.data())
def test_verify_and_bound_never_raise(n, k, minimal, data):
    """Fuzzed graph and certificate files give exit 0, 1 or 2, never a
    traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, cert_path = Path(tmp, "g.graph"), Path(tmp, "f.cert")
        graph_path.write_bytes(data.draw(_graph_file(n)))
        cert_path.write_bytes(data.draw(_cert_file(n)))
        verify_argv = ["verify", str(graph_path), "--cert", str(cert_path)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(verify_argv + ["--minimal"] * minimal) in (0, 1, 2)
            assert main(["bound", "--k", str(k), str(graph_path)]) in (0, 1, 2)


@st.composite
def _small_files(draw, kind):
    """Bytes of a file named on the command line: arbitrary bytes, or a
    small graph, certificate or 1-in-3 CNF in the canonical form."""
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    n = draw(st.integers(1, 7))
    if kind == "graph":
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
        return emit_graph(Graph(n, sorted(draw(st.sets(edge, max_size=12))))).encode()
    if kind == "certificate":
        values = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        k, mode = draw(st.integers(1, 2)), draw(st.sampled_from(list(Mode)))
        return emit_certificate(SignFunction(tuple(values)), k, mode).encode()
    n = max(n, 3)
    clause = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True).map(tuple)
    return loop_cnf_text(ThreeSatFormula(n, tuple(draw(st.lists(clause, max_size=4))))).encode()


_FILE_KINDS = ("graph", "certificate", "cnf", "bytes")


def _values(valid, invalid):
    """A pool of flag values: (valid ones, invalid ones)."""
    return tuple(map(str, valid)), tuple(map(str, invalid))


# The arguments of each subcommand and their pools: a pool of values, None
# for a flag without a value, a file kind for an input path and "out" for
# an output path.
_K = _values(range(1, 4), [-1, 0])
_SMALL = _values(range(13), [-1])
_MODE = _values(["closed", "total"], ["open"])
_FORMAT = _values(["text", "structured"], ["xml"])
_BUDGET = _values(range(501), ["x"])
_CLI_ARGS = {
    "solve": {
        "graph": "graph", "--k": _K, "--mode": _MODE,
        "--param": _values(["sigma", "upper"], ["lower"]),
        "--algo": _values(["bnb", "brute"], ["milp"]),
        "--max-brute-n": _BUDGET, "--node-budget": _BUDGET, "--format": _FORMAT, "-o": "out",
    },
    "verify": {
        "graph": "graph", "--cert": "certificate", "--k": _K, "--mode": _MODE,
        "--minimal": None, "--format": _FORMAT, "-o": "out",
    },
    "bound": {
        "graph": "graph", "--k": _K, "--mode": _MODE, "--n": _SMALL, "--delta": _SMALL,
        "--Delta": _SMALL, "--format": _FORMAT, "-o": "out",
    },
    "gen extremal": {
        "--k": _K, "--delta": _SMALL, "--Delta": _SMALL, "--t": _SMALL, "--mode": _MODE,
        "-o": "out",
    },
    "gen onefactor": {"--n": _SMALL},
    "reduce": {
        "input": "graph", "--from": _values(["mds", "mtds", "1in3"], ["3sat"]), "--k": _K,
        "-o": "out",
    },
}


@settings(max_examples=400)
@given(
    command=st.sampled_from(sorted(_CLI_ARGS)), seed=st.integers(0, 2**32 - 1), data=st.data()
)
def test_cli_never_crashes(command, seed, data):
    """argv drawn from pools of subcommands, flags and small values, with
    files of arbitrary bytes or small valid texts, only ever ends with a
    documented exit code (0-3), never with an internal error (4). Each
    argument is left out, or given an invalid value, one time in ten."""
    rnd = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        argv = command.split()
        for i, (name, pool) in enumerate(_CLI_ARGS[command].items()):
            if rnd.random() < 0.1:
                continue
            if name.startswith("-"):
                argv.append(name)
            if pool == "out":
                argv.append(str(Path(tmp, "out" if rnd.random() < 0.9 else "no/dir/out")))
            elif isinstance(pool, str):  # an input file of kind `pool`
                path = Path(tmp, f"in{i}")
                if rnd.random() < 0.9:
                    kind = pool if rnd.random() < 0.7 else rnd.choice(_FILE_KINDS)
                    path.write_bytes(data.draw(_small_files(kind)))
                argv.append(str(path))
            elif pool is not None:
                valid, invalid = pool
                argv.append(rnd.choice(invalid if rnd.random() < 0.1 else valid))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "internal error" not in err.getvalue()


def test_xcheck(capsys):
    assert main(["xcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_xcheck_reports_a_failure(monkeypatch, capsys):
    """CI trusts xcheck's exit code: a wrong B&B value must fail it, on the
    one check it breaks."""
    wrong = SolveResult("optimal", -999, None, 0)
    monkeypatch.setattr(cli, "bnb_sigma", lambda *args, **kwargs: wrong)
    assert main(["xcheck"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("PASS ")] == [
        "FAIL bnb == brute force on random graphs"
    ]


def test_xcheck_checks_the_total_mode_bound(monkeypatch, capsys):
    """xcheck is all CI runs without the test extra, so it checks a total-mode
    extremal member too: a total-mode bound off by 2 fails that one line."""
    right = cli.lower_bound

    def wrong(p, mode):
        return right(p, mode) + (2 if mode is Mode.TOTAL else 0)

    monkeypatch.setattr(cli, "lower_bound", wrong)
    assert main(["xcheck"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("PASS ")] == [
        "FAIL extremal (k=1, delta=3, Delta=4, t=6, total) is sharp"
    ]
