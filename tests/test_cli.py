import contextlib
import errno
import functools
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import refuse_on_edge

import sgharmonic.cli
from sgharmonic.cli import cli
from sgharmonic.gasket import (
    EDGES,
    BoundaryValues,
    EdgePoint,
    cell_values,
    cell_word,
    edge_profile,
    eval_dyadic,
    on_edge,
)
from sgharmonic.oracle import MAX_LEVEL
from sgharmonic.restrictions import conserved_combination


def run(*args):
    return CliRunner().invoke(cli, list(args))


class TestEval:
    def test_midpoint(self):
        res = run("eval", "-a", "0", "-b", "0", "-g", "1",
                  "--edge", "bottom", "--point", "1/2")
        assert res.exit_code == 0
        assert res.output.strip() == "2/5 (0.4)"

    def test_third_point(self):
        res = run("eval", "-a", "0", "-b", "0", "-g", "1", "--point", "1/3")
        assert res.exit_code == 0
        assert res.output.startswith("7/27")

    def test_constant(self):
        res = run("eval", "-a", "1", "-b", "1", "-g", "1", "--point", "3/8")
        assert res.exit_code == 0
        assert res.output.strip() == "1 (1)"

    def test_subedge_third_point(self):
        res = run("eval", "-a", "0", "-b", "0", "-g", "1", "--point", "1/6")
        assert res.exit_code == 0
        assert res.output.startswith("19/135")

    def test_third_points_read_through_eval_dyadic(self, monkeypatch):
        # the reference is the route through on_edge's permuted triple: the
        # f(1/3) of its cell over [k/2^m, (k+1)/2^m], mirrored at 2/3; then
        # on_edge is refused in the package, the CLI included
        points = {"1/3": (0, 0, 1), "2/3": (0, 0, 2), "5/12": (1, 2, 2)}  # (k, m, j)
        want = {}
        for bv in (BoundaryValues(3, -1, 7), BoundaryValues(Fraction(-3, 7), Fraction(2, 9), 4)):
            for edge in EDGES:
                for point, (k, m, j) in points.items():
                    c = cell_values(on_edge(bv, edge), cell_word(k, m))
                    if j == 2:
                        c = BoundaryValues(c.alpha, c.gamma, c.beta)
                    want[bv, edge, point] = conserved_combination(c) / 27
        refuse_on_edge(monkeypatch)
        for (bv, edge, point), value in want.items():
            res = run("eval", *(f"--{name}={x}" for name, x in
                                zip(("alpha", "beta", "gamma"), bv.as_tuple())),
                      "--edge", edge, "--point", point)
            assert res.exit_code == 0, res.output
            assert Fraction(res.stdout.split()[0]) == value

    def test_eval_binds_no_second_route(self):
        assert [name for name in ("on_edge", "cell_word", "decode_edge_point")
                if hasattr(sgharmonic.cli, name)] == []

    def test_unsupported_point(self):
        res = run("eval", "-a", "0", "-b", "0", "-g", "1", "--point", "5/7")
        assert res.exit_code == 2

    @pytest.mark.parametrize("point", ["5/7", "1/9", "3/2", "-1/2"])
    def test_invalid_point_named(self, point):
        res = run("eval", "-a", "0", "-b", "0", "-g", "1", f"--point={point}")
        assert res.exit_code == 2
        assert f"point {point} " in res.output

    def test_malformed_rational(self):
        res = run("eval", "-a", "zz", "-b", "0", "-g", "1", "--point", "1/2")
        assert res.exit_code == 2

    def test_json_round_trip(self):
        res = run("eval", "-a", "0", "-b", "0", "-g", "1",
                  "--point", "1/4", "--format", "json")
        payload = json.loads(res.output)
        assert Fraction(payload["results"]["value"]) == Fraction(1, 5)
        assert payload["command"] == "eval"


class TestClassify:
    def test_non_monotone_bracket(self):
        res = run("classify", "-a", "5", "-b", "0", "-g", "1",
                  "--depth", "4", "--format", "json")
        payload = json.loads(res.output)
        bottom = payload["results"]["edges"]["bottom"]
        assert bottom["class"] == "NonMonotone"
        ext = bottom["extremum"]
        assert ext["kind"] == "max"
        assert Fraction(ext["hi"]) - Fraction(ext["lo"]) == Fraction(1, 16)

    def test_simultaneous(self):
        res = run("classify", "-a", "1", "-b", "0", "-g", "2", "--format", "json")
        payload = json.loads(res.output)
        classes = {e: v["class"] for e, v in payload["results"]["edges"].items()}
        assert set(classes.values()) <= {"StrictlyIncreasing", "StrictlyDecreasing"}
        assert payload["results"]["simultaneous_monotone"] is True

    def test_constant_everywhere(self):
        res = run("classify", "-a", "0", "-b", "0", "-g", "0", "--format", "json")
        payload = json.loads(res.output)
        assert all(v["class"] == "Constant"
                   for v in payload["results"]["edges"].values())
        assert payload["results"]["simultaneous_monotone"] is None

    def test_depth_reaches_the_extremum_guard(self):
        # --depth reads restrictions.MAX_EXTREMUM_DEPTH: 4096 runs to full depth
        args = ("classify", "-a", "5/2", "-b", "0", "-g", "1", "--format", "json")
        res = run(*args, "--depth", "4096")
        assert res.exit_code == 0
        ext = json.loads(res.output)["results"]["edges"]["bottom"]["extremum"]
        assert Fraction(ext["hi"]) - Fraction(ext["lo"]) == Fraction(1, 2 ** 4096)
        res = run(*args, "--depth", "4097")
        assert res.exit_code == 2
        assert "4097 is not in the range 1<=x<=4096" in res.output


class TestScan:
    def test_depth_one_rows(self):
        res = run("scan", "-a", "0", "-b", "0", "-g", "1", "--depth", "1")
        lines = res.output.strip().splitlines()
        assert lines[0] == "x_num,x_den,f_num,f_den,f_float"
        assert lines[1:] == ["0,1,0,1,0.0", "1,2,2,5,0.4", "1,1,1,1,1.0"]

    def test_quarter_point_row(self):
        res = run("scan", "-a", "0", "-b", "0", "-g", "1", "--depth", "2")
        assert "1,4,1,5,0.2" in res.output.splitlines()

    def test_constant_rows(self):
        res = run("scan", "-a", "1", "-b", "1", "-g", "1", "--depth", "3")
        rows = res.output.strip().splitlines()[1:]
        assert all(row.split(",")[2:4] == ["1", "1"] for row in rows)

    def test_deterministic(self):
        args = ("scan", "-a", "2", "-b", "-3", "-g", "7", "--depth", "6")
        assert run(*args).output == run(*args).output

    def test_rows_reparse_exactly(self):
        from sgharmonic.gasket import BoundaryValues, EdgePoint, eval_dyadic
        res = run("scan", "-a", "5", "-b", "0", "-g", "1", "--depth", "4")
        bv = BoundaryValues(5, 0, 1)
        for row in res.output.strip().splitlines()[1:]:
            xn, xd, fn, fd, _ = row.split(",")
            x = Fraction(int(xn), int(xd))
            assert Fraction(int(fn), int(fd)) == eval_dyadic(
                bv, EdgePoint("bottom", x))

    def test_depth_zero_rows(self):
        res = run("scan", "-a", "3", "-b", "-1/2", "-g", "7", "--depth", "0")
        assert res.exit_code == 0
        assert res.stdout_bytes == (b"x_num,x_den,f_num,f_den,f_float\r\n"
                                    b"0,1,-1,2,-0.5\r\n1,1,7,1,7.0\r\n")

    def test_output_file_matches_stdout(self, tmp_path):
        args = ("scan", "-a", "19/27", "-b", "-17/13", "-g", "-79/41", "--edge", "left",
                "--depth", "9")
        path = tmp_path / "scan.csv"
        res = run(*args, "--output", str(path))
        assert res.exit_code == 0 and res.stdout == ""
        assert path.read_bytes() == run(*args).stdout_bytes

    def test_output_in_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        res = run("scan", "-a", "0", "-b", "0", "-g", "1", "--output", str(path))
        assert res.exit_code == 2
        assert f"cannot write --output {path}" in res.output
        assert not path.parent.exists()

    @pytest.mark.parametrize("failing", ["write", "close"])
    def test_output_write_failure_is_a_usage_error(self, tmp_path, monkeypatch, failing):
        # a full disk fails a write, or the flush of the rows at close: exit 2
        # with the message of a failed open, no traceback, and the file closed
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FullStream(io.StringIO):
            def write(self, text):
                if failing == "write":
                    raise full
                return super().write(text)

            def close(self):
                super().close()
                if failing == "close":
                    raise full
        streams = []
        monkeypatch.setattr(sgharmonic.cli, "open",
                            lambda *args, **kwargs: streams.append(FullStream()) or streams[-1],
                            raising=False)
        path = tmp_path / "scan.csv"
        res = run("scan", "-a", "1", "-b", "2", "-g", "3", "--depth", "4", "--output", str(path))
        assert (res.exit_code, type(res.exception)) == (2, SystemExit)
        assert f"cannot write --output {path}: {os.strerror(errno.ENOSPC)}" in res.output
        assert len(streams) == 1 and streams[0].closed

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("depth", [4, 14])  # the rows fail at close; at a write
    def test_output_to_a_full_device(self, monkeypatch, depth):
        opened = []
        monkeypatch.setattr(sgharmonic.cli, "open",
                            lambda *args, **kwargs: opened.append(open(*args, **kwargs))
                            or opened[-1], raising=False)
        res = run("scan", "-a", "1", "-b", "2", "-g", "3", "--depth", str(depth),
                  "--output", "/dev/full")
        assert (res.exit_code, type(res.exception)) == (2, SystemExit)
        assert "cannot write --output /dev/full: " in res.output
        assert len(opened) == 1 and opened[0].closed

    # At depth 20 with (10^n, 0, 1), a row is bounded by n + 15 digits of the
    # numerator with its sign, 14 of the denominator 5^20, two x fields of 7,
    # a float of 24 and 6 separators: n + 73 bytes.  So n = 951 gives 1024
    # bytes a row, and 2^20 + 1 rows and the header pass 1 GiB; n = 950 does not.
    ABOVE_BOUND = 1024 * (2 ** 20 + 1) + len("x_num,x_den,f_num,f_den,f_float\r\n")

    class Walked(Exception):
        pass

    def refuse_walk(self, monkeypatch):
        def walk(*args):
            raise self.Walked
        monkeypatch.setattr(sgharmonic.cli, "edge_profile", walk)

    @pytest.mark.parametrize("output", [False, True])
    def test_refused_just_above_the_bound(self, tmp_path, monkeypatch, output):
        self.refuse_walk(monkeypatch)
        path = tmp_path / "scan.csv"
        res = run("scan", "-a", f"1{'0' * 951}", "-b", "0", "-g", "1", "--depth", "20",
                  *(["--output", str(path)] if output else []))
        assert (res.exit_code, type(res.exception)) == (2, SystemExit)
        assert sgharmonic.cli.MAX_SCAN_BYTES == 2 ** 30 < self.ABOVE_BOUND
        assert (f"scan would write about {self.ABOVE_BOUND} bytes at --depth 20 with "
                f"inputs of up to 952 digits, above its bound of {2 ** 30} bytes"
                in res.output)
        assert res.stdout == ""  # the message goes to standard error
        assert not path.exists()

    @pytest.mark.parametrize("triple", [(f"1{'0' * 950}", "0", "1"), ("2", "-3", "7/3")])
    def test_admitted_at_or_below_the_bound(self, monkeypatch, triple):
        # just below the bound, and CI's depth-20 triple (about 79 MB): the walk runs
        self.refuse_walk(monkeypatch)
        a, b, g = triple
        res = run("scan", "-a", a, "-b", b, "-g", g, "--depth", "20")
        assert type(res.exception) is self.Walked

    @pytest.mark.parametrize("depth", [0, 1, 8])
    def test_estimate_bounds_the_output(self, depth):
        # on the triples of every digest, float overflows and 70-bit corners included
        for a, b, g in self.SCAN_TRIPLES:
            bv = BoundaryValues(*map(Fraction, (a, b, g)))
            for edge in EDGES:
                t, den, _ = sgharmonic.cli.edge_cell(bv, edge, 1)
                res = run("scan", f"--alpha={a}", f"--beta={b}", f"--gamma={g}",
                          "--edge", edge, "--depth", str(depth))
                assert res.exit_code == 0
                assert len(res.stdout_bytes) <= sgharmonic.cli._scan_bytes(t, den, depth)

    def test_refusal_leaves_an_existing_output_file(self, tmp_path, monkeypatch):
        self.refuse_walk(monkeypatch)
        path = tmp_path / "scan.csv"
        path.write_bytes(b"kept\r\n")
        res = run("scan", "-a", f"1{'0' * 3999}", "-b", "0", "-g", "1", "--depth", "20",
                  "--output", str(path))
        assert res.exit_code == 2 and "inputs of up to 4000 digits" in res.output
        assert path.read_bytes() == b"kept\r\n"

    # an integer triple, (-9/5, 1/5, 11/5) on the hyperplane alpha = 2*beta - gamma,
    # and a 70-bit one; the digest was generated before the CSV was written in blocks
    DEEP_TRIPLES = [
        ("2", "-3", "7"), ("-9/5", "1/5", "11/5"),
        ("-334226106584129774341/155876139355663594873",
         "129036094995233865690/805641985552713486677",
         "-834097655157903340523/457588421882283571737"),
    ]
    DEEP_DIGEST = "efa2ead003e640c880d996798551883100d26573ae3b393c4f32d8269c0edd23"

    def test_depth_twelve_digest(self):
        digest = hashlib.sha256()
        for a, b, g in self.DEEP_TRIPLES:
            for edge in ("bottom", "left", "right"):
                args = ("scan", f"--alpha={a}", f"--beta={b}", f"--gamma={g}",
                        "--edge", edge, "--depth", "12")
                res = run(*args)
                digest.update(json.dumps([args, res.exit_code, res.stdout]).encode())
        assert digest.hexdigest() == self.DEEP_DIGEST

    # the deep triples, one with every corner negative and one whose values
    # overflow a float both ways; the digest was generated while scan still
    # built one Fraction per value
    SCAN_TRIPLES = [*DEEP_TRIPLES, ("-7/3", "-11/2", "-1/9"), ("1e400", "-1e400", "7/2")]
    SCAN_DIGEST = "42f2084a23406a2ccbb948ec9ef5985c8e4d623110054b6ffe48bc1bf2051bd4"

    def test_scan_digest(self):
        digest = hashlib.sha256()
        for a, b, g in self.SCAN_TRIPLES:
            for edge in ("bottom", "left", "right"):
                for depth in ("0", "1", "5", "13"):
                    args = ("scan", f"--alpha={a}", f"--beta={b}", f"--gamma={g}",
                            "--edge", edge, "--depth", depth)
                    res = run(*args)
                    digest.update(json.dumps([args, res.exit_code, res.stdout]).encode())
        assert digest.hexdigest() == self.SCAN_DIGEST


class TestFloatOverflow:
    # the float companion of a value past a float's range reads as an
    # infinity (null in JSON); the exact columns are unchanged
    BIG = ("-a", "1e400", "-b", "0", "-g", "0")

    def test_eval(self):
        res = run("eval", *self.BIG, "--point", "1/2")
        assert res.exit_code == 0
        assert res.stdout == f"{2 * 10 ** 399} (inf)\n"

    def test_eval_json(self):
        res = run("eval", "-a", "-1e400", "-b", "0", "-g", "0", "--point", "1/2",
                  "--format", "json")
        assert res.exit_code == 0
        results = json.loads(res.stdout)["results"]
        assert results == {"value": str(-2 * 10 ** 399), "value_float": None}

    def test_scan(self):
        res = run("scan", "-a", "1e400", "-b", "-1e400", "-g", "0", "--edge", "left",
                  "--depth", "1")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[1:] == [
            f"0,1,{10 ** 400},1,inf", "1,2,0,1,0.0", f"1,1,{-10 ** 400},1,-inf"]


class TestScanFloatColumn:
    # the fifth column is the float nearest the row's exact value, as
    # float(Fraction(p, q)) gives it, or inf/-inf past a float's range: on
    # subnormal values, on values overflowing both ways, on a triple whose
    # common denominator 5^3 makes the walk's numerators far from lowest
    # terms, and on the 70-bit deep triple, whose numerators pass 2^53 (a
    # quotient of the two ints rounded to floats first is off on about half
    # of its rows)
    TRIPLES = [("1e-310", "-3e-320", "0"), ("1e400", "-1e400", "7/2"),
               ("1/25", "2/125", "3/5"), TestScan.DEEP_TRIPLES[2]]

    @staticmethod
    def companion(p, q):
        try:
            return repr(float(Fraction(p, q)))
        except OverflowError:
            return "inf" if p > 0 else "-inf"

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_companion_is_the_nearest_float(self, triple):
        for edge in EDGES:
            a, b, g = triple
            res = run("scan", f"--alpha={a}", f"--beta={b}", f"--gamma={g}",
                      "--edge", edge, "--depth", "8")
            assert res.exit_code == 0
            rows = res.stdout.splitlines()[1:]
            assert len(rows) == 2 ** 8 + 1
            for row in rows:
                _, _, p, q, approx = row.split(",")
                assert approx == self.companion(int(p), int(q))


@contextlib.contextmanager
def unlimited_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestIntStrLimit:
    # Results with more digits than Python's int-to-str limit (4300) print
    # exactly; every input here is under the limit.
    WIDE = BoundaryValues(Fraction(1, 3 ** 8000), Fraction(1, 7 ** 4700), 0)
    WIDE_ARGS = ("-a", f"1/{3 ** 8000}", "-b", f"1/{7 ** 4700}", "-g", "0")

    def exact(self, text):
        with unlimited_digits():
            return Fraction(text)

    def test_eval(self):
        limit = sys.get_int_max_str_digits()
        point = Fraction(1, 2 ** 14000)
        res = run("eval", "-a", "0", "-b", "0", "-g", "1", "--point", str(point))
        assert res.exit_code == 0
        assert self.exact(res.stdout.split()[0]) == eval_dyadic(
            BoundaryValues(0, 0, 1), EdgePoint("bottom", point))
        res = run("eval", *self.WIDE_ARGS, "--point", "1/2")
        assert res.exit_code == 0
        assert self.exact(res.stdout.split()[0]) == eval_dyadic(
            self.WIDE, EdgePoint("bottom", Fraction(1, 2)))
        assert sys.get_int_max_str_digits() == limit

    def test_scan(self):
        res = run("scan", *self.WIDE_ARGS, "--depth", "1")
        assert res.exit_code == 0
        rows = [row.split(",") for row in res.stdout.strip().splitlines()[1:]]
        values, den = edge_profile(self.WIDE, 1)
        assert [self.exact(f"{fn}/{fd}") for _, _, fn, fd, _ in rows] == [
            Fraction(v, den) for v in values]

    def test_classify(self):
        res = run("classify", *self.WIDE_ARGS, "--format", "json")
        assert res.exit_code == 0
        lengths = json.loads(res.stdout)["results"]["edge_lengths"]
        a, b, g = self.WIDE.as_tuple()
        assert {e: self.exact(v) for e, v in lengths.items()} == {
            "left": abs(a - b), "right": abs(a - g), "bottom": abs(b - g)}

    def test_inputs_parsed_under_limit(self):
        res = run("eval", "-a", "1" + "0" * 4300, "-b", "0", "-g", "1", "--point", "1/2")
        assert res.exit_code == 2
        assert "not an exact rational" in res.output

    def test_exponent_past_limit_rejected(self):
        # 1e5000 is a 5001-digit integer, past the limit as its literal is
        res = run("eval", "-a", "1e5000", "-b", "0", "-g", "1", "--point", "1/2")
        assert res.exit_code == 2
        assert f"more than {sys.get_int_max_str_digits()} digits" in res.output

    def test_exponent_under_limit_accepted(self):
        res = run("classify", "-a", "1e400", "-b", "0", "-g", "1", "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["results"]["edge_lengths"]["left"] == str(10 ** 400)


class TestVerify:
    def test_selected_suites_pass(self):
        res = run("verify", "--suite", "lemma1", "--suite", "eq16",
                  "--trials", "50")
        assert res.exit_code == 0
        assert "lemma1: PASS" in res.output
        assert "eq16: PASS" in res.output

    def test_oracle_suite(self):
        res = run("verify", "--suite", "oracle", "--depth", "3", "--trials", "5")
        assert res.exit_code == 0
        assert "oracle: PASS" in res.output

    def test_theorem6_suite_json_structure(self):
        res = run("verify", "--suite", "theorem6", "--m-max", "20",
                  "--trials", "10", "--format", "json")
        payload = json.loads(res.output)
        suite = payload["suites"][0]
        assert suite["name"] == "theorem6"
        assert suite["status"] == "PASS"
        assert "steps checked from onset m0" in suite["details"]
        assert payload["results"]["all_passed"] is True
        assert res.exit_code == 0

    def test_suite_elapsed_time_reported(self):
        start = time.perf_counter()
        res = run("verify", "--suite", "lemma1", "--suite", "eq16", "--trials", "5",
                  "--format", "json")
        wall = time.perf_counter() - start
        payload = json.loads(res.output)
        assert set(payload) == {"command", "inputs", "results", "suites"}
        for suite in payload["suites"]:
            assert set(suite) == {"name", "status", "details", "counterexample",
                                  "elapsed_s"}
            assert isinstance(suite["elapsed_s"], float) and suite["elapsed_s"] >= 0
        # each suite does some work, and all of it inside the command's run
        assert 0 < sum(suite["elapsed_s"] for suite in payload["suites"]) <= wall
        human = run("verify", "--suite", "eq16", "--trials", "5").output
        assert re.fullmatch(r"eq16: PASS - proven on the unit triples for every rational "
                            r"triple, m <= 30, and f\(1/3\), f\(2/3\) of every edge at m = 0; "
                            r"5 random triples agree \(\d+\.\d\d s\)\n",
                            human)

    def test_counterexample_is_exact_text(self, monkeypatch):
        from sgharmonic import restrictions, verify
        from sgharmonic.gasket import BoundaryValues
        res = verify._fail("theorem6", "msg", bv=BoundaryValues(
            Fraction(19, 27), Fraction(-17, 13), -2), ratio=Fraction(7, 3), m0=7)
        assert res.status == "FAIL"
        assert res.counterexample == {"bv": "19/27,-17/13,-2", "ratio": "7/3", "m0": "7"}
        # a zero scan that finds two zeros: theorem5 lists them as zero-search prints
        monkeypatch.setattr(restrictions, "count_zero_junctions", lambda bv, depth: (
            2, [("left", Fraction(1, 2)), ("vertex", "p0")]))
        res = run("verify", "--suite", "theorem5", "--trials", "3", "--format", "json")
        assert res.exit_code == 1
        (suite,) = json.loads(res.output)["suites"]
        assert (suite["status"], suite["details"]) == ("FAIL", "more than one zero junction")
        assert suite["counterexample"]["zeros"] == "left:1/2, p0"

    def test_closedform_suite_passes(self):
        res = run("verify", "--suite", "closedform", "--trials", "10",
                  "--m-max", "15")
        assert res.exit_code == 0
        assert "closedform: PASS" in res.output

    def test_unknown_suite_rejected(self):
        assert run("verify", "--suite", "nonsense").exit_code == 2

    def test_option_no_selected_suite_takes_rejected(self):
        res = run("verify", "--suite", "theorem5", "--trials", "3", "--m-max", "5")
        assert res.exit_code == 2
        assert "--m-max" in res.output
        assert "theorem5" in res.output

    def test_suite_that_raises_fails_with_the_exception(self, monkeypatch):
        # a fault raised inside a suite is a FAIL (exit 1), not a usage error
        # (exit 2) or a traceback, and the other suites still run
        from sgharmonic import oracle, restrictions

        def monotone(*args):
            raise ValueError("restriction is monotone; no extremum to locate")

        def singular(*args):
            raise ArithmeticError("singular system")
        monkeypatch.setattr(restrictions, "locate_extremum", monotone)
        monkeypatch.setattr(oracle, "solve_harmonic", singular)
        res = run("verify", "--suite", "theorem5", "--trials", "3")
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.startswith("theorem5: FAIL - raised ValueError: restriction is "
                                     "monotone; no extremum to locate (")
        assert "Usage" not in res.output and "Traceback" not in res.output
        res = run("verify", "--suite", "oracle", "--suite", "lemma1", "--trials", "3",
                  "--format", "json")
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        failed, passed = json.loads(res.output)["suites"]
        assert (failed["name"], failed["status"], failed["details"]) == (
            "oracle", "FAIL", "raised ArithmeticError: singular system")
        assert failed["counterexample"] == {"error": "ArithmeticError: singular system"}
        assert (passed["name"], passed["status"]) == ("lemma1", "PASS")

    def test_theorem6_checking_no_step_is_inconclusive(self):
        res = run("verify", "--suite", "theorem6", "--m-max", "3", "--trials", "5")
        assert res.exit_code == 1
        assert "theorem6: INCONCLUSIVE - 5 triples, both sides, 3 <= m <= 3: 0 steps" \
            in res.output

    def test_theorem3_sampling_no_class_member_is_inconclusive(self):
        res = run("verify", "--suite", "theorem3", "--trials", "2", "--format", "json")
        payload = json.loads(res.output)
        assert payload["suites"][0]["status"] == "INCONCLUSIVE"
        counts = re.match(r"(\d+) increasing and (\d+) non-monotone triples sampled",
                          payload["suites"][0]["details"])
        assert "0" in counts.groups()
        assert payload["results"]["all_passed"] is False
        assert res.exit_code == 1

    @pytest.mark.parametrize("suite,bound", [("oracle", MAX_LEVEL), ("theorem5", 12)])
    def test_depth_above_suite_bound_rejected(self, suite, bound):
        res = run("verify", "--suite", suite, "--depth", str(bound + 1))
        assert res.exit_code == 2
        assert f"suite {suite} takes --depth up to {bound}, got {bound + 1}" in res.output

    @pytest.mark.parametrize("depth", ["21", "1000000"])
    def test_depth_has_one_bound(self, depth):
        # run_suites' per-suite bound is the only one: no range error comes first
        res = run("verify", "--suite", "oracle", "--depth", depth)
        assert res.exit_code == 2
        assert f"suite oracle takes --depth up to 8, got {depth}" in res.output

    # trials * base^depth at the bound, and one trial past it; the suite is
    # replaced by a stub that keeps its signature, so the accepted side is instant
    @pytest.mark.parametrize("suite,base,depth,trials", [
        ("theorem5", 2, 12, 1000), ("theorem5", 2, 6, 64000),
        ("oracle", 3, 8, 25), ("oracle", 3, 3, 6075)])
    def test_work_bound(self, monkeypatch, suite, base, depth, trials):
        from sgharmonic import verify
        bound = trials * base ** depth
        assert verify.MAX_WORK[suite] == (base, bound)
        ran = []

        @functools.wraps(verify.SUITES[suite])
        def stub(**kwargs):
            ran.append(kwargs)
            return verify.SuiteResult(suite, "PASS")
        monkeypatch.setitem(verify.SUITES, suite, stub)
        res = run("verify", "--suite", suite, "--depth", str(depth), "--trials", str(trials))
        assert res.exit_code == 0
        assert ran == [{"seed": 0, "depth": depth, "trials": trials}]
        res = run("verify", "--suite", suite, "--depth", str(depth),
                  "--trials", str(trials + 1))
        assert res.exit_code == 2
        assert (f"suite {suite} takes --trials * {base}^--depth up to {bound}, "
                f"got {trials + 1} * {base}^{depth}") in res.output
        assert len(ran) == 1

    @pytest.mark.parametrize("suite,depth", [("theorem5", 12), ("oracle", 8)])
    def test_hours_of_work_rejected(self, suite, depth):
        res = run("verify", "--suite", suite, "--depth", str(depth), "--trials", "1000000")
        assert res.exit_code == 2
        assert f"suite {suite} takes --trials *" in res.output

    def test_hours_of_m_indexed_work_rejected(self):
        res = run("verify", "--suite", "lemma2", "--trials", "1000000", "--m-max", "60")
        assert res.exit_code == 2
        assert ("suite lemma2 takes --trials * --m-max up to 300000, got 1000000 * 60"
                in res.output)

    def test_whole_run_names_the_suites_that_refuse(self):
        res = run("verify", "--trials", "7000")
        assert res.exit_code == 2
        assert ("suite oracle takes --trials * 3^--depth up to 164025, got 7000 * 3^3. "
                "With no --suite every suite runs, and oracle refuses these options: "
                "pick the others with --suite") in res.output
        res = run("verify", "--trials", "100000")
        assert res.exit_code == 2
        assert "and theorem5 and oracle refuse these options" in res.output
        res = run("verify", "--suite", "oracle", "--trials", "7000")
        assert res.exit_code == 2
        assert "got 7000 * 3^3" in res.output and "With no --suite" not in res.output


class TestZeroSearch:
    def test_relation_reported(self):
        res = run("zero-search", "--alpha=-2", "-b", "0", "-g", "2", "--depth", "4")
        assert res.exit_code == 0
        assert "p1" in res.output
        assert "1*alpha + -2*beta + 1*gamma = 0" in res.output

    def test_no_zeros(self):
        res = run("zero-search", "-a", "5", "-b", "0", "-g", "1",
                  "--depth", "4", "--format", "json")
        payload = json.loads(res.output)
        assert payload["results"]["zero_count"] == 0

    def test_symmetric_triple_zero_and_relation(self):
        res = run("zero-search", "-a", "0", "-b", "0", "-g", "1",
                  "--depth", "4", "--format", "json")
        payload = json.loads(res.output)
        assert payload["results"]["zeros"] == ["left:1/2"]
        assert [1, -1, 0] in payload["results"]["relations"]

    def test_constant_rejected(self):
        assert run("zero-search", "-a", "1", "-b", "1", "-g", "1").exit_code == 2


# The first ten triples are built on a primitive relation (n, m, k) as
# alpha = gamma + t*m, beta = gamma - t*n: (1,-2,1), (1,1,-2), (3,-5,2),
# (7,4,-11), (12,-1,-11), (13,-6,-7), (50,-49,-1), (51,-50,-1), (0,1,-1) and
# (2,-3,1) on 70-bit corners.  Then eight seeded small rationals, (5, 0, 1)
# and a constant triple.  The digest was generated while corner_relations
# still enumerated every candidate coefficient pair.
RELATION_TRIPLES = [
    ("0", "1", "2"), ("29/14", "-41/14", "-3/7"), ("-5/3", "-1", "0"),
    ("-93/13", "193/13", "11/13"), ("47/9", "23/3", "5"), ("-4", "-37/4", "1/2"),
    ("-348/5", "-71", "-1"), ("83/11", "84/11", "3"), ("35/12", "2/3", "2/3"),
    ("-329607529108154317006820015042836883776967/125580362410788284038738308614331811007021",
     "-309493880782766597206639443660179029169597/125580362410788284038738308614331811007021",
     "-334226106584129774341/155876139355663594873"),
    ("12/13", "-12/23", "-78/53"), ("12/53", "-3", "6/47"), ("-47/14", "4/3", "1"),
    ("-8/35", "48/89", "-62/51"), ("23/78", "49/47", "-5/67"), ("-40", "36/67", "7/16"),
    ("-13/48", "81/19", "-63/65"), ("-55/94", "-93/25", "11/14"), ("5", "0", "1"),
    ("4", "4", "4"),
]
RELATION_DIGEST = "a105edae78670ef00e41deee1a3d1e2b9009c22fd0d10c2d1a9ae258573a93e4"


def test_zero_search_relations_digest():
    digest = hashlib.sha256()
    for a, b, g in RELATION_TRIPLES:
        for bound in ("1", "5", "12", "50"):
            args = ("zero-search", f"--alpha={a}", f"--beta={b}", f"--gamma={g}",
                    "--coeff-bound", bound, "--format", "json")
            res = run(*args)
            digest.update(json.dumps([args, res.exit_code, res.stdout]).encode())
    assert digest.hexdigest() == RELATION_DIGEST


def test_invocations_leave_no_stream_alive():
    # each CliRunner invocation gives the command a fresh stdout wrapper;
    # output must not keep it alive after the invocation returns
    def live_wrappers():
        gc.collect()
        return sum(type(o).__name__ == "_NamedTextIOWrapper" for o in gc.get_objects())

    commands = [("eval", "-a", "0", "-b", "0", "-g", "1", "--point", "1/3"),
                ("classify", "-a", "5", "-b", "0", "-g", "1"),
                ("zero-search", "--alpha=-2", "-b", "0", "-g", "2"),
                ("verify", "--suite", "eq16", "--trials", "1", "--format", "json")]
    before = live_wrappers()
    for _ in range(10):
        for args in commands:
            assert run(*args).exit_code == 0
    assert live_wrappers() == before


def run_module(*args, **kwargs):
    """The command as a process, python -m sgharmonic.cli, run from this checkout."""
    src = str(Path(sgharmonic.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.Popen([sys.executable, "-m", "sgharmonic.cli", *args], env=env,
                            stderr=subprocess.PIPE, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", [
    ("eval", "-a", "0", "-b", "0", "-g", "1", "--point", "1/2"),
    ("classify", "-a", "5", "-b", "0", "-g", "1"),
    ("scan", "-a", "1", "-b", "2", "-g", "3", "--depth", "4"),
    ("zero-search", "--alpha=-2", "-b", "0", "-g", "2"),
    ("verify", "--suite", "lemma1", "--trials", "5"),
], ids=lambda args: args[0])
def test_unwritable_stdout_is_a_usage_error(args):
    # each command flushes stdout before it returns, so a full device fails
    # inside the command: exit 2 with the reason, as for scan's --output
    with open("/dev/full", "w") as full, run_module(*args, stdout=full) as proc:
        _, err = proc.communicate(timeout=60)
    err = err.decode()
    assert proc.returncode == 2, err
    assert f"cannot write stdout: {os.strerror(errno.ENOSPC)}" in err
    assert "Traceback" not in err


def test_closed_pipe_ends_quietly():
    # a reader that stops after the header (as `| head -1`) closes the pipe
    # while scan still writes: no traceback and no message
    with run_module("scan", "-a", "1", "-b", "0", "-g", "1", "--depth", "14",
                    stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"x_num,x_den,f_num,f_den,f_float\r\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert err == b""


# Fixed triples for the golden digest: integer and rational ones, a constant
# one, (-2, 0, 2) and (-9/5, 1/5, 11/5) on the hyperplane alpha = 2*beta - gamma,
# and a 70-bit one.
GOLDEN_TRIPLES = [
    ("0", "0", "1"), ("5", "0", "1"), ("-2", "0", "2"), ("1", "0", "2"),
    ("1", "1", "1"), ("2", "-3", "7"), ("19/27", "-17/13", "-79/41"),
    ("3/7", "-1/2", "5"), ("-9/5", "1/5", "11/5"),
    ("-334226106584129774341/155876139355663594873",
     "129036094995233865690/805641985552713486677",
     "-834097655157903340523/457588421882283571737"),
]
# dyadic, endpoint, whole-edge and sub-edge third points, and invalid ones
GOLDEN_POINTS = ("0", "1", "1/2", "3/8", "1/3", "2/3", "5/12", "5/7", "1/9", "3/2")
GOLDEN_DIGEST = "88bbe30660993ff35883972ad63944762a9bb33c2092c13cc635f6242273cd97"


def golden_calls():
    for a, b, g in GOLDEN_TRIPLES:
        triple = (f"--alpha={a}", f"--beta={b}", f"--gamma={g}")
        for edge in ("bottom", "left", "right"):
            for point in GOLDEN_POINTS:
                for fmt in ("human", "json"):
                    yield ("eval", *triple, "--edge", edge, "--point", point,
                           "--format", fmt)
            yield ("scan", *triple, "--edge", edge, "--depth", "6")
        for fmt in ("human", "json"):
            yield ("zero-search", *triple, "--depth", "6", "--format", fmt)
        yield ("classify", *triple, "--depth", "40", "--format", "json")


def test_golden_outputs():
    # one digest over (args, exit code, stdout) of every call; a change that
    # alters any output byte or exit code on this set changes it
    digest = hashlib.sha256()
    for args in golden_calls():
        res = run(*args)
        digest.update(json.dumps([args, res.exit_code, res.stdout]).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_readme_cli_examples(tmp_path, monkeypatch):
    # each `sgharmonic ...` line of the README's CLI block exits 0, and prints
    # what its "# ->" comment gives, where "..." stands for any text
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ran = checked = 0
    for line in block.splitlines():
        if not line.startswith("sgharmonic "):
            continue
        command, _, want = line.partition("# ->")
        res = run(*shlex.split(command)[1:])
        assert res.exit_code == 0, (command, res.output)
        ran += 1
        if want.strip():
            pattern = re.escape(want.strip()).replace(re.escape("..."), ".*")
            assert re.fullmatch(pattern, res.stdout.strip()), (command, res.stdout)
            checked += 1
    assert (ran, checked) == (6, 2)
    assert (tmp_path / "profile.csv").read_text().startswith("x_num,x_den,f_num,f_den,")
