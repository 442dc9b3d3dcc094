"""The command-line interface: outputs, exit codes, round-trips."""

import csv
import io
import json

import pytest

from overrot.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_period_two(self, capsys):
        code, out, _ = run(capsys, "classify", "2 1")
        assert code == 0
        assert json.loads(out) == {
            "period": 2,
            "convergent": True,
            "division": True,
            "doubling": False,
            "block_sizes": [],
            "orp": [1, 2],
            "rho": "1/2",
        }

    def test_cycle_notation(self, capsys):
        code, out, _ = run(capsys, "classify", "(1 4 6 2 3 5)", "--cycles")
        assert code == 0
        assert json.loads(out)["orp"] == [2, 6]

    def test_bad_pattern_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "2 2 1")
        assert code == 2
        assert "error:" in err

    def test_bad_cycle_token_is_named(self, capsys):
        code, _, err = run(capsys, "classify", "(1 2", "--cycles")
        assert code == 2
        assert "error: expected whitespace-separated integers, got '(1'" in err

    def test_several_cycles_are_a_usage_error(self, capsys):
        code, out, err = run(capsys, "classify", "(1 3)(2)", "--cycles")
        assert (code, out) == (2, "")
        assert err == "error: cycle notation takes one cycle, got '(1 3)(2)'\n"


class TestStefan:
    def test_five(self, capsys):
        assert run(capsys, "stefan", "5") == (0, "3 5 4 2 1\n", "")

    def test_seven(self, capsys):
        assert run(capsys, "stefan", "7")[1] == "4 7 6 5 3 2 1\n"

    def test_even_rejected(self, capsys):
        code, _, err = run(capsys, "stefan", "6")
        assert code == 2 and "error:" in err


class TestForces:
    def test_true(self, capsys):
        assert run(capsys, "forces", "2 3 1", "2 1") == (0, "true\n", "")

    def test_false(self, capsys):
        assert run(capsys, "forces", "2 1", "2 3 1") == (1, "false\n", "")


class TestForced:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "forced", "2 3 1", "--period", "4")
        assert code == 0
        assert out == "3 4 2 1\n"

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "forced", "2 1", "--period", "3")
        assert code == 0
        assert out == ""


class TestSpectrum:
    def test_sorted_pairs(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2 3 1", "--cap", "5")
        assert code == 0
        assert out == "1 2\n1 3\n2 4\n2 5\n"


class TestMarkov:
    def test_edge_list(self, capsys):
        code, out, _ = run(capsys, "markov", "2 3 1")
        assert code == 0
        assert out == "J1 J2\nJ2 J1\nJ2 J2\n"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "markov", "2 3 1", "--dot")
        assert code == 0
        assert out == (
            "digraph covering {\n"
            "  J1;\n"
            "  J2;\n"
            "  J1 -> J2;\n"
            "  J2 -> J1;\n"
            "  J2 -> J2;\n"
            "}\n"
        )


class TestOrder:
    def test_star(self, capsys):
        assert run(capsys, "order", "star", "4", "6") == (0, "true\n", "")
        assert run(capsys, "order", "star", "6", "4") == (1, "false\n", "")

    def test_sharkovsky(self, capsys):
        assert run(capsys, "order", "sharkovsky", "3", "5")[0] == 0
        assert run(capsys, "order", "sharkovsky", "5", "3")[0] == 1

    def test_orp(self, capsys):
        assert run(capsys, "order", "orp", "1", "4", "1", "3") == (0, "true\n", "")
        assert run(capsys, "order", "orp", "1", "3", "1", "3")[0] == 1

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "order", "star", "4")
        assert code == 2 and "error:" in err


class TestEta:
    def test_pairs(self, capsys):
        assert run(capsys, "eta", "6") == (0, "2 6\n", "")
        assert run(capsys, "eta", "7")[1] == "3 7\n"


class TestTwist:
    def test_twist(self, capsys):
        code, out, _ = run(capsys, "twist", "2 3 1", "--cap", "9")
        assert (code, out) == (0, "twist-up-to 9\n")

    def test_not_twist(self, capsys):
        code, out, _ = run(capsys, "twist", "3 4 2 1", "--cap", "8")
        assert (code, out) == (1, "not-twist\n")

    def test_default_cap(self, capsys):
        assert run(capsys, "twist", "2 3 1")[1] == "twist-up-to 9\n"

    def test_cap_below_two_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "twist", "2 3 1", "--cap", "-5")
        assert (code, out) == (2, "")
        assert "cap must be at least 2" in err

    def test_cap_below_the_denominator_is_a_usage_error(self, capsys):
        # rho = 1/3: a cap of 2 would search no period at all
        code, out, err = run(capsys, "twist", "2 4 6 5 3 1", "--cap", "2")
        assert (code, out) == (2, "")
        assert "cap 2 is below 3" in err


class TestEnumerate:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--period", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert set(rows[0]) == {
            "pattern",
            "orp_p",
            "orp_q",
            "convergent",
            "division",
            "doubling",
            "block_sizes",
        }
        doubled = next(r for r in rows if r["pattern"] == "3 4 2 1")
        assert doubled["division"] == "true"
        assert doubled["doubling"] == "true"
        assert doubled["block_sizes"] == "2"
        assert doubled["orp_p"] == "2" and doubled["orp_q"] == "4"

    def test_filters(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--period", "4", "--divergent")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["pattern"] for r in rows] == ["3 1 4 2"]
        _, out, _ = run(capsys, "enumerate", "--period", "4", "--no-block-structure")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["block_sizes"] == "" for r in rows)
        assert len(rows) == 3

    def test_round_trips_through_the_parser(self, capsys):
        from overrot import parse_pattern

        _, out, _ = run(capsys, "enumerate", "--period", "5")
        for row in csv.DictReader(io.StringIO(out)):
            assert str(parse_pattern(row["pattern"])) == row["pattern"]

    def test_period_below_two_writes_nothing(self, capsys):
        code, out, err = run(capsys, "enumerate", "--period", "1")
        assert (code, out) == (2, "")
        assert "period must be at least 2" in err


class TestVerify:
    def test_json_report(self, capsys):
        code, out, err = run(
            capsys, "verify", "trichotomy", "--max-period", "4", "--cap", "8"
        )
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "trichotomy"
        assert data["params"] == {"max_period": 4, "cap": 8}
        assert data["violations"] == []
        assert data["pass"] is True
        assert "trichotomy: pass" in err

    def test_jobs_flag_is_deterministic(self, capsys):
        _, out1, _ = run(
            capsys, "verify", "lemmas", "--max-period", "5", "--cap", "6"
        )
        _, out2, _ = run(
            capsys,
            "verify",
            "lemmas",
            "--max-period",
            "5",
            "--cap",
            "6",
            "--jobs",
            "2",
        )
        assert out1 == out2

    def test_cap_for_a_suite_without_one_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "stefan-only", "--cap", "2")
        assert (code, out) == (2, "")
        assert "stefan-only takes no --cap" in err

    def test_lemmas_cap_below_three_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "lemmas", "--max-period", "3", "--cap", "2"
        )
        assert (code, out) == (2, "")
        assert "cap >= 3" in err

    def test_unknown_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


class TestParser:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2


class TestParserReuse:
    """main builds its parser once per process and reuses it."""

    SEQUENCE = [
        ["spectrum", "3 1 4 2", "--cap", "6"],
        ["verify", "trichotomy", "--max-period", "5", "--cap", "7"],
        ["twist", "2 3 1", "--cap", "three"],  # argparse: SystemExit 2
        ["twist", "2 4 6 5 3 1", "--cap", "2"],  # caught ValueError: exit 2
        ["spectrum", "3 1 4 2", "--cap", "6"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_a_reused_parser_matches_a_fresh_one(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            _build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        _build_parser.cache_clear()
        reused = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.SEQUENCE) - 1)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2, 2, 0]
