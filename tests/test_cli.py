import json
from fractions import Fraction

from click.testing import CliRunner

from sgharmonic.cli import cli


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

    def test_unsupported_point(self):
        res = run("eval", "-a", "0", "-b", "0", "-g", "1", "--point", "5/7")
        assert res.exit_code == 2

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

    def test_counterexample_is_exact_text(self):
        from sgharmonic import verify
        from sgharmonic.gasket import BoundaryValues
        res = verify._fail("theorem6", "msg", bv=BoundaryValues(
            Fraction(19, 27), Fraction(-17, 13), -2), ratio=Fraction(7, 3), m0=7,
            zeros=[("left", Fraction(1, 2)), ("vertex", "p0")])
        assert res.status == "FAIL"
        assert res.counterexample == {"bv": "19/27,-17/13,-2", "ratio": "7/3",
                                      "m0": "7", "zeros": "left:1/2, p0"}

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
