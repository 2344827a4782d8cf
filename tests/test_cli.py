import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbg.cli import main
from qbg.commands import _SUBCOMMANDS

DATA = Path(__file__).parent / "data"
#: ``qbg --help`` and each subcommand's help text at 80 columns, one file each.
HELP_TEXTS = sorted((Path(__file__).parent / "golden" / "help").glob("*.txt"))
#: The environment of a ``python -m qbg`` child: it imports qbg from ``src``,
#: and every warning is an error in it, as in this process.
ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
       "PYTHONWARNINGS": "error"}

RECORDED = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "cli_cases.json").read_text(encoding="utf-8")
)["cases"]
#: The recorded ``map`` cases as (q, beta, order, the report as recorded).
RECORDED_MAPS = [pytest.param(*case["args"][1::2], case["expected"], id=case["id"])
                 for case in RECORDED if case["subcommand"] == "map"]


def run_cli(*args, check=True):
    result = subprocess.run(
        [sys.executable, "-m", "qbg", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=ENV,
    )
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.stderr}")
    return result


def parse_report(path):
    meta, header, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            if "=" in line:
                key, _, value = line[2:].partition("=")
                meta[key] = value
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows


@pytest.fixture
def spectrum_file(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text(DATA.joinpath("spectrum_0to5.csv").read_text())
    return path


class TestMap:
    def test_q_one_rows(self, tmp_path):
        out = tmp_path / "map.csv"
        run_cli("map", "--q", "1", "--beta", "2", "--order", "4", "--out", out)
        meta, header, rows = parse_report(out)
        assert header == "n,beta_n"
        assert rows == [["1", "2.0"], ["2", "0.0"], ["3", "0.0"], ["4", "0.0"]]

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_cli("map", "--q", "0.98", "--beta", "1", "--order", "3", "--out", out)
        assert out1.read_bytes() == out2.read_bytes()

    def test_floats_render_in_shortest_roundtrip_form(self, tmp_path):
        out = tmp_path / "map.csv"
        run_cli("map", "--q", "0.98", "--beta", "1", "--order", "3", "--out", out)
        _, _, rows = parse_report(out)
        for _, value in rows:
            assert repr(float(value)) == value

    def test_nonfinite_literal_rejected(self, tmp_path):
        result = run_cli("map", "--q", "nan", "--beta", "1", "--order", "2",
                         "--out", tmp_path / "x.csv", check=False)
        assert result.returncode != 0

    def test_multiplier_past_float_range_fails_in_one_line(self, tmp_path):
        # beta**2 = 1e400 is not a float
        out = tmp_path / "x.csv"
        result = run_cli("map", "--q", "0.5", "--beta", "1e200", "--order", "2",
                         "--out", out, check=False)
        assert result.returncode == 1
        assert result.stderr.startswith("ValueError: multiplier beta_2 ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert not out.exists()

    def test_q_one_terminates_at_large_beta(self, tmp_path):
        # beta**2 = 1e400 is not a float, but beta_2 = 0 * beta**2 / 2 is 0
        out = tmp_path / "map.csv"
        result = run_cli("map", "--q", "1", "--beta", "1e200", "--order", "2", "--out", out)
        assert result.returncode == 0
        assert parse_report(out)[2] == [["1", "1e+200"], ["2", "0.0"]]

    def test_overflowing_power_with_a_float_multiplier(self, tmp_path):
        # beta**2 = 1e320 is not a float, but beta_2 = (1-q)*beta**2/2 is
        out = tmp_path / "map.csv"
        result = run_cli("map", "--q", "0.9999999999999999", "--beta", "1e160", "--order", "2",
                         "--out", out)
        assert (result.returncode, result.stderr) == (0, "")
        assert parse_report(out)[2] == [["1", "1e+160"], ["2", "5.551115123125782e+303"]]

    def test_overflowing_power_round_trips_through_invert_map(self, tmp_path):
        # beta_1**2 = 1e320 is not a float; invert-map must still match
        mapped = tmp_path / "map.csv"
        run_cli("map", "--q", "0.9999999999999999", "--beta", "1e160", "--order", "2",
                "--out", mapped)
        out = tmp_path / "inv.csv"
        run_cli("invert-map", "--multipliers", mapped, "--out", out)
        meta, _, rows = parse_report(out)
        assert meta["matched"] == "true"
        assert rows == [["0.9999999999999999", "1e+160"]]


    @pytest.mark.parametrize("q, beta, order, recorded", [
        pytest.param("0.98", "1", "6", None, id="0.98-1-6"),
        pytest.param("1.5", "0.25", "12", None, id="1.5-0.25-12"),
        pytest.param("1", "2", "3", None, id="1-2-3"),
        *RECORDED_MAPS,
    ])
    def test_report_round_trips_through_invert_map(self, tmp_path, q, beta, order, recorded):
        # a recorded report is fed back as it was recorded
        mapped = tmp_path / "map.csv"
        if recorded is None:
            run_cli("map", "--q", q, "--beta", beta, "--order", order, "--out", mapped)
        else:
            mapped.write_bytes(recorded.encode("utf-8"))
        out = tmp_path / "inv.csv"
        run_cli("invert-map", "--multipliers", mapped, "--out", out)
        meta, _, rows = parse_report(out)
        assert meta["order"] == order
        assert meta["matched"] == "true"
        assert [float(x) for x in rows[0]] == [float(q), float(beta)]


class TestClayton:
    def test_rows_and_q_comment(self, tmp_path):
        out = tmp_path / "clayton.csv"
        run_cli("clayton", "--beta", "1", "--delta", "0.01", "--out", out)
        text = out.read_text()
        assert "# q=0.98\n" in text
        meta, header, rows = parse_report(out)
        assert rows == [["1", "1.0"], ["2", "0.01"]]

    @pytest.mark.parametrize("beta, delta, message", [
        # beta**2 = 1e400 is not a float
        ("1e200", "1", "ValueError: multiplier beta_2 = delta * beta**2 overflows\n"),
        # beta_2 = 1e308 is a float, q = 1 - 2*delta is not
        ("1", "1e308", "ValueError: q = 1 - 2*delta overflows, got delta=1e+308\n"),
    ], ids=["beta_2", "q"])
    def test_out_of_range_fails_in_one_line(self, tmp_path, beta, delta, message):
        out = tmp_path / "x.csv"
        result = run_cli("clayton", "--beta", beta, "--delta", delta, "--out", out,
                         check=False)
        assert (result.returncode, result.stderr) == (1, message)
        assert not out.exists()

    def test_overflowing_beta_squared_with_a_float_multiplier(self, tmp_path):
        # beta**2 = 1e400 is not a float, but beta_2 = delta*beta**2 is
        out = tmp_path / "clayton.csv"
        result = run_cli("clayton", "--beta", "1e200", "--delta=-1e-300", "--out", out)
        assert (result.returncode, result.stderr) == (0, "")
        assert parse_report(out)[2] == [["1", "1e+200"], ["2", "-1e+100"]]

    def test_zero_delta_terminates_at_large_beta(self, tmp_path):
        out = tmp_path / "clayton.csv"
        run_cli("clayton", "--beta", "1e200", "--delta", "0", "--out", out)
        meta, _, rows = parse_report(out)
        assert meta["q"] == "1.0"
        assert rows == [["1", "1e+200"], ["2", "0.0"]]


class TestDistQ:
    def test_cutoff_rows_print_zero_and_flag(self, tmp_path, spectrum_file):
        out = tmp_path / "dist.csv"
        run_cli("dist-q", "--spectrum", spectrum_file, "--q", "0.5", "--beta", "1",
                "--out", out)
        meta, header, rows = parse_report(out)
        assert header == "energy,degeneracy,probability,cutoff"
        assert len(rows) == 6
        # bracket 1 - 0.5 E <= 0 from E = 2 on
        for energy, _, prob, flag in rows:
            if float(energy) >= 2:
                assert prob == "0" and flag == "true"
            else:
                assert flag == "false" and float(prob) > 0

    @pytest.mark.parametrize("q", ["1", "2"])
    def test_zero_weight_without_bracket_cut_is_flagged(self, tmp_path, q):
        # beta*E overflows: at q = 1 the log weight -beta*E is -inf, at q = 2
        # u = inf and log1p(inf)/(1-q) is -inf; the row reads as cut off
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("0,1\n1e300,1\n")
        out = tmp_path / "dist.csv"
        assert main(["dist-q", "--spectrum", str(spectrum), "--q", q, "--beta", "1e10",
                     "--out", str(out)]) == 0
        _, _, rows = parse_report(out)
        assert rows == [["0.0", "1", "1.0", "false"], ["1e+300", "1", "0", "true"]]

    @pytest.mark.parametrize("q", ["1", "2"])
    def test_overflowing_weight_writes_no_warning(self, tmp_path, q):
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("0,1\n1e300,1\n")
        result = run_cli("dist-q", "--spectrum", spectrum, "--q", q, "--beta", "1e10",
                         "--out", tmp_path / "dist.csv")
        assert result.stderr == ""

    def test_non_finite_deformation_fails_without_output(self, tmp_path, capsys,
                                                          spectrum_file):
        out = tmp_path / "dist.csv"
        assert main(["dist-q", "--spectrum", str(spectrum_file), "--q=-1e300",
                     "--beta", "1e10", "--out", str(out)]) == 1
        assert "(1-q)*beta must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_probabilities_sum_to_one(self, tmp_path, spectrum_file):
        out = tmp_path / "dist.csv"
        run_cli("dist-q", "--spectrum", spectrum_file, "--q", "1", "--beta", "0.5",
                "--out", out)
        _, _, rows = parse_report(out)
        assert math.fsum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-12)


class TestDistExt:
    def test_matches_direct_weights(self, tmp_path, spectrum_file):
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("1,1.0\n2,0.01\n")
        out = tmp_path / "dist.csv"
        run_cli("dist-ext", "--spectrum", spectrum_file, "--multipliers", multipliers,
                "--out", out)
        _, header, rows = parse_report(out)
        assert header == "energy,degeneracy,probability"
        w = [math.exp(-(e + 0.01 * e * e)) for e in range(6)]
        z = sum(w)
        for row, expected in zip(rows, w):
            assert float(row[2]) == pytest.approx(expected / z, rel=1e-12)

    def test_order_cap_fails_without_output(self, tmp_path, capsys, spectrum_file):
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("".join(f"{n},0.001\n" for n in range(1, 22)))
        out = tmp_path / "dist.csv"
        assert main(["dist-ext", "--spectrum", str(spectrum_file), "--multipliers",
                     str(multipliers), "--out", str(out)]) == 1
        assert "OrderTooLarge" in capsys.readouterr().err
        assert not out.exists()


class TestEquiv:
    def test_distances_decrease_to_noise(self, tmp_path, spectrum_file):
        out = tmp_path / "equiv.csv"
        run_cli("equiv", "--spectrum", spectrum_file, "--q", "0.98", "--beta", "1",
                "--max-order", "12", "--out", out)
        meta, header, rows = parse_report(out)
        assert header == "N,sup_distance"
        assert len(rows) == 12
        distances = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(distances, distances[1:]))
        assert distances[-1] <= 1e-12

    def test_outside_domain_fails_without_output(self, tmp_path):
        spectrum = tmp_path / "wide.csv"
        spectrum.write_text("0,1\n100,1\n")
        out = tmp_path / "equiv.csv"
        result = run_cli("equiv", "--spectrum", spectrum, "--q", "0.5", "--beta", "1",
                         "--max-order", "4", "--out", out, check=False)
        assert result.returncode != 0
        assert "OutsideConvergenceDomain" in result.stderr
        assert not out.exists()

    def test_overflowing_power_fails_in_one_line(self, tmp_path):
        # beta_2 = 0.5 * 1e-201**2 / 2 underflows to 0 although beta_2 * 1e200**2
        # is about 2.5e-3: the report would repeat the order-1 distance
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("0,1\n1e200,1\n")
        out = tmp_path / "equiv.csv"
        result = run_cli("equiv", "--spectrum", spectrum, "--q", "0.5", "--beta", "1e-201",
                         "--max-order", "3", "--out", out, check=False)
        assert result.returncode == 1
        assert result.stderr == ("NonFiniteExponent: max|E|**2 = 1e+200**2 overflows; "
                                 "rescale the spectrum\n")
        assert not out.exists()


class TestSolve:
    def test_recovers_two_level_multiplier(self, tmp_path):
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("0,1\n1,1\n")
        out = tmp_path / "solve.csv"
        run_cli("solve", "--spectrum", spectrum, "--targets", str(1 / 3), "--out", out)
        meta, _, rows = parse_report(out)
        assert meta["converged"] == "true"
        assert float(rows[0][1]) == pytest.approx(math.log(2), abs=1e-9)

    def test_report_round_trips_through_dist_ext(self, tmp_path, spectrum_file):
        # the solved multipliers reproduce the target moments
        solved = tmp_path / "solve.csv"
        run_cli("solve", "--spectrum", spectrum_file, "--targets", "1.5,4", "--out", solved)
        assert parse_report(solved)[0]["converged"] == "true"
        out = tmp_path / "dist.csv"
        run_cli("dist-ext", "--spectrum", spectrum_file, "--multipliers", solved,
                "--out", out)
        meta, _, rows = parse_report(out)
        assert meta["order"] == "2"
        probs = [float(r[2]) for r in rows]
        for n, target in ((1, 1.5), (2, 4.0)):
            moment = math.fsum(p * e ** n for e, p in zip(range(6), probs))
            assert moment == pytest.approx(target, rel=1e-9)

    def test_infeasible_targets_fail_without_output(self, tmp_path, spectrum_file):
        out = tmp_path / "solve.csv"
        result = run_cli("solve", "--spectrum", spectrum_file, "--targets", "9.5",
                         "--out", out, check=False)
        assert result.returncode != 0
        assert "InfeasibleTargets" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("levels, targets, message", [
        # a trial's probabilities sum to 1.0015, a failed trial like any other
        ("0 1 2 3", "1.5,2.25", "NotConverged: "),
        ("0 1 2 1e160", "1.0,1.5",
         "NonFiniteExponent: max|E|**2 = 1e+160**2 overflows; rescale the spectrum\n"),
        # the targets cannot be divided by 3e-170**2, which is 0 in floats
        ("0 1e-170 2e-170 3e-170", "1.5e-170,2.5e-340",
         "NonFiniteExponent: max|E|**2 = 3e-170**2 underflows to 0; rescale the spectrum\n"),
    ], ids=["refused-trial", "overflowing-power", "underflowing-power"])
    def test_unsolved_targets_fail_with_one_line(self, tmp_path, levels, targets, message):
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("".join(f"{e},1\n" for e in levels.split()))
        out = tmp_path / "solve.csv"
        result = run_cli("solve", "--spectrum", spectrum, "--targets", targets, "--out", out,
                         check=False)
        assert result.returncode == 1
        assert result.stderr.startswith(message) and result.stderr.count("\n") == 1
        assert not out.exists()


class TestInvertMap:
    def test_match(self, tmp_path):
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("1,1.0\n2,0.01\n")
        out = tmp_path / "inv.csv"
        run_cli("invert-map", "--multipliers", multipliers, "--out", out)
        meta, header, rows = parse_report(out)
        assert header == "q,beta"
        assert meta["matched"] == "true"
        assert rows == [["0.98", "1.0"]]

    def test_negative_tol_never_matches(self, tmp_path):
        # an order-1 vector is always Boltzmann, but no tolerance is below 0
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("1,0.5\n")
        out = tmp_path / "inv.csv"
        run_cli("invert-map", "--multipliers", multipliers, "--tol", "-1", "--out", out)
        meta, _, rows = parse_report(out)
        assert meta["tol"] == "-1.0"
        assert meta["matched"] == "false"
        assert rows == []

    def test_no_match_writes_empty_table(self, tmp_path):
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("1,1.0\n2,0.25\n3,0.2\n")
        out = tmp_path / "inv.csv"
        run_cli("invert-map", "--multipliers", multipliers, "--out", out)
        meta, _, rows = parse_report(out)
        assert meta["matched"] == "false"
        assert rows == []

    @pytest.mark.parametrize("coeffs, expected", [
        # beta_1**2 underflows to 0
        ((1e-200, 0.0), [["1.0", "1e-200"]]),
        ((1e-170, 1e-320), [["-1.9999777343653662e+20", "1e-170"]]),
        # (1-q)**2 overflows; the predicted beta_3 is far from 5
        ((1e-100, 1e100, 5.0), []),
        # q = 1 - 2e310 is not a finite float
        ((1e-5, 1e300), []),
    ])
    def test_float_range_edges(self, tmp_path, coeffs, expected):
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("".join(f"{n},{c!r}\n" for n, c in enumerate(coeffs, 1)))
        out = tmp_path / "inv.csv"
        assert main(["invert-map", "--multipliers", str(multipliers), "--out", str(out)]) == 0
        meta, _, rows = parse_report(out)
        assert meta["matched"] == ("true" if expected else "false")
        assert rows == expected


class TestEntropy:
    def test_q_mode_quantities(self, tmp_path, spectrum_file):
        out = tmp_path / "ent.csv"
        run_cli("entropy", "--spectrum", spectrum_file, "--q", "1", "--beta", "1",
                "--out", out)
        _, header, rows = parse_report(out)
        assert header == "quantity,value"
        values = {name: float(v) for name, v in rows}
        # at q = 1 the escort energy is the plain mean
        assert values["escort_energy"] == pytest.approx(values["mean_energy"], rel=1e-12)
        assert values["tsallis_entropy"] == pytest.approx(values["bg_entropy"], rel=1e-12)

    def test_multiplier_mode(self, tmp_path, spectrum_file):
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("1,0.5\n")
        out = tmp_path / "ent.csv"
        run_cli("entropy", "--spectrum", spectrum_file, "--multipliers", multipliers,
                "--out", out)
        _, _, rows = parse_report(out)
        assert {name for name, _ in rows} == {"log_partition", "mean_energy", "bg_entropy"}

    def test_rejects_both_parameterizations(self, tmp_path, spectrum_file):
        multipliers = tmp_path / "m.csv"
        multipliers.write_text("1,0.5\n")
        result = run_cli("entropy", "--spectrum", spectrum_file, "--q", "1",
                         "--beta", "1", "--multipliers", multipliers,
                         "--out", tmp_path / "x.csv", check=False)
        assert result.returncode != 0

    def test_extreme_q_fails_in_one_line(self, tmp_path):
        # P**q overflows at q = -1000: a named error, no warning, no report
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("0,1\n1,3\n2,2\n")
        out = tmp_path / "ent.csv"
        result = run_cli("entropy", "--spectrum", spectrum, "--q=-1000", "--beta", "1e-6",
                         "--out", out, check=False)
        assert result.returncode == 1
        assert result.stderr == "ValueError: escort_energy at q=-1000.0 must be finite, got nan\n"
        assert not out.exists()


class TestConfigAndErrors:
    def test_config_file_supplies_parameters(self, tmp_path):
        config = tmp_path / "run.json"
        out = tmp_path / "map.csv"
        config.write_text(json.dumps({"q": 1.0, "beta": 2.0, "order": 4, "out": str(out)}))
        run_cli("map", "--config", config)
        _, _, rows = parse_report(out)
        assert rows[0] == ["1", "2.0"]

    def test_flags_win_over_config(self, tmp_path):
        config = tmp_path / "run.json"
        out = tmp_path / "map.csv"
        config.write_text(json.dumps({"q": 1.0, "beta": 2.0, "order": 4}))
        run_cli("map", "--config", config, "--beta", "3", "--out", out)
        _, _, rows = parse_report(out)
        assert rows[0] == ["1", "3.0"]

    def test_parse_error_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\noops\n")
        result = run_cli("dist-q", "--spectrum", bad, "--q", "1", "--beta", "1",
                         "--out", tmp_path / "x.csv", check=False)
        assert result.returncode != 0
        assert "ParseError" in result.stderr
        assert ":2:" in result.stderr

    def test_missing_required_flag(self, tmp_path):
        result = run_cli("map", "--q", "1", "--out", tmp_path / "x.csv", check=False)
        assert result.returncode != 0
        assert "beta" in result.stderr

    def test_missing_out(self):
        result = run_cli("map", "--q", "1", "--beta", "1", "--order", "2", check=False)
        assert result.returncode == 1
        assert result.stderr == "ValueError: map requires --out\n"


class TestConfigValueTypes:
    """A config value of the wrong type or a non-integral order ends with the
    usual one-line ``ValueError``, exit 1 and no report, never a traceback or
    a silently truncated run."""

    @pytest.mark.parametrize("subcommand, values, flag", [
        ("map", {"q": 0.98, "beta": 1.0, "order": 2.7}, "--order"),
        ("map", {"q": 0.98, "beta": 1.0, "order": True}, "--order"),
        ("equiv", {"spectrum": "s.csv", "q": 0.98, "beta": 1.0, "max_order": 3.5},
         "--max-order"),
        ("equiv", {"spectrum": "s.csv", "q": 0.98, "beta": 1.0, "max_order": False},
         "--max-order"),
        ("solve", {"spectrum": "s.csv", "targets": 5}, "--targets"),
        ("solve", {"spectrum": "s.csv", "targets": [1.0, [2.0]]}, "--targets"),
        ("map", {"q": [1], "beta": 1.0, "order": 2}, "--q"),
        ("map", {"q": 0.98, "beta": True, "order": 2}, "--beta"),
        ("dist-q", {"spectrum": ["s.csv"], "q": 0.98, "beta": 1.0}, "--spectrum"),
        # a number written as a JSON string is not a number
        ("map", {"q": "0.98", "beta": "1", "order": "3"}, "--q"),
        ("map", {"q": 0.98, "beta": "1", "order": 3}, "--beta"),
        ("map", {"q": 0.98, "beta": 1.0, "order": "3"}, "--order"),
        ("solve", {"spectrum": "s.csv", "targets": [2.0], "tol": "1e-9"}, "--tol"),
        ("solve", {"spectrum": "s.csv", "targets": ["2", "5.5"]}, "--targets"),
    ])
    def test_rejected_with_value_error(self, tmp_path, capsys, spectrum_file,
                                       subcommand, values, flag):
        values = {k: str(spectrum_file) if v == "s.csv" else v for k, v in values.items()}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        out = tmp_path / "x.csv"
        assert main([subcommand, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ValueError: {flag} must be ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_integral_float_order_accepted(self, tmp_path):
        config = tmp_path / "run.json"
        out = tmp_path / "map.csv"
        config.write_text(json.dumps({"q": 0.98, "beta": 1.0, "order": 3.0}))
        assert main(["map", "--config", str(config), "--out", str(out)]) == 0
        meta, _, rows = parse_report(out)
        assert meta["order"] == "3"
        assert len(rows) == 3


    def test_targets_string_accepted(self, tmp_path, spectrum_file):
        config = tmp_path / "run.json"
        out = tmp_path / "solve.csv"
        config.write_text(json.dumps({"spectrum": str(spectrum_file), "targets": "2,5.5"}))
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        assert parse_report(out)[0]["converged"] == "true"


class TestDashValues:
    """A flag value that starts with ``-`` parses as a separate argument just
    as it does written ``--flag=value``."""

    @staticmethod
    def outcome(argv, out, capsys):
        try:
            status = main([*argv, "--out", str(out)])
        except SystemExit as exc:   # an argparse usage error
            status = exc.code
        report = out.read_bytes() if out.exists() else None
        if out.exists():
            out.unlink()
        return status, capsys.readouterr().err, report

    @pytest.mark.parametrize("argv, flag, status", [
        (["solve", "--spectrum", "{s}"], ["--targets", "-0.5,1"], 0),
        (["map", "--beta", "1", "--order", "2"], ["--q", "-1e300"], 0),
        (["clayton", "--beta", "1"], ["--delta", "-inf"], 1),
        (["map", "--q", "0.98", "--order", "2"], ["--beta", "-1"], 1),
    ])
    def test_same_as_joined(self, tmp_path, capsys, argv, flag, status):
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("-2,1\n-1,1\n0,1\n1,2\n2,1\n3,1\n")
        argv = [a.replace("{s}", str(spectrum)) for a in argv]
        out = tmp_path / "x.csv"
        separate = self.outcome([*argv, *flag], out, capsys)
        joined = self.outcome([*argv, "=".join(flag)], out, capsys)
        assert separate == joined
        assert separate[0] == status
        assert (separate[2] is not None) == (status == 0)

    def test_options_stay_options(self, tmp_path, capsys):
        # a word starting with "--" after a flag is still read as an option
        out = tmp_path / "x.csv"
        status, err, report = self.outcome(["map", "--q", "--beta", "1"], out, capsys)
        assert status == 2 and "argument --q: expected one argument" in err
        assert report is None


class TestInputChecks:
    """A non-finite number or a bad ``--targets``, given as a flag or in the
    config file, a config file that is not a JSON object of known keys, or an
    ``entropy`` run with both or neither of its parameterizations, ends with
    its one-line ``ValueError``, exit 1 and no report."""

    @pytest.mark.parametrize("subcommand, flags, values, message", [
        ("map", ["--q", "nan", "--beta", "1", "--order", "2"], None,
         "--q must be finite, got nan"),
        ("map", ["--beta", "inf", "--order", "2"], {"q": 0.98},
         "--beta must be finite, got inf"),
        ("clayton", ["--beta", "1", "--delta=-inf"], None,
         "--delta must be finite, got -inf"),
        ("solve", ["--tol", "nan", "--targets", "2"], None,
         "--tol must be finite, got nan"),
        ("map", ["--beta", "1", "--order", "2"], {"q": math.inf},
         "--q must be finite, got inf"),
        ("map", ["--q", "0.98", "--order", "2"], {"beta": math.nan},
         "--beta must be finite, got nan"),
        ("clayton", ["--beta", "1"], {"delta": math.nan},
         "--delta must be finite, got nan"),
        ("solve", ["--targets", "2"], {"tol": -math.inf},
         "--tol must be finite, got -inf"),
        ("solve", [], {"targets": []}, "--targets must list at least one moment"),
        ("solve", ["--targets", "2,nan"], None, "--targets entries must be finite"),
        ("solve", [], {"targets": [2.0, math.inf]}, "--targets entries must be finite"),
        # several bad values: conversions first (paths, numbers, integers,
        # --targets), then finiteness, then the --targets checks
        ("solve", ["--tol", "inf"], {"targets": []}, "--tol must be finite, got inf"),
        ("map", ["--q", "nan", "--beta", "1"], {"order": 2.5},
         "--order must be an integer, got 2.5"),
        ("map", ["--q", "0.98", "--beta", "1"], {"order": 2.5, "tol": "x"},
         "--tol must be a number, got 'x'"),
        ("map", ["--q", "0.98", "--beta", "1", "--order", "2"], [1, 2],
         "config file must hold a JSON object"),
        ("map", ["--q", "0.98", "--beta", "1"], {"order": 2, "temperature": 1},
         "unknown config key 'temperature'"),
        # the refusal comes before the multiplier file is read
        ("entropy", ["--q", "1", "--beta", "1", "--multipliers", "absent.csv"], None,
         "entropy takes either --q/--beta or --multipliers, not both"),
        ("entropy", ["--beta", "1"], {"multipliers": "absent.csv"},
         "entropy takes either --q/--beta or --multipliers, not both"),
        ("entropy", [], None, "entropy requires --q/--beta or --multipliers"),
        ("entropy", ["--q", "1"], None, "entropy requires --beta"),
    ])
    def test_input_checks(self, tmp_path, capsys, spectrum_file, subcommand, flags,
                          values, message):
        args = [subcommand, *flags]
        if subcommand in ("solve", "entropy"):
            args += ["--spectrum", str(spectrum_file)]
        if values is not None:
            config = tmp_path / "run.json"
            config.write_text(json.dumps(values))
            args += ["--config", str(config)]
        out = tmp_path / "x.csv"
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"ValueError: {message}\n"
        assert not out.exists()


def test_import_loads_no_scipy(tmp_path, spectrum_file):
    """A ``qbg`` process that runs a numeric subcommand pays for what
    ``import qbg.cli`` loads, and no process imports scipy, not even
    ``solve``: the solver loads LAPACK from the extension module
    ``scipy.linalg._flapack`` by file location, because the ``scipy.linalg``
    package takes longer to import than the rest of a ``solve`` process."""
    code = ("import qbg, qbg.cli, sys; "
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(loaded()); qbg.cli.main(sys.argv[1:]); print(loaded())")
    out = tmp_path / "solve.csv"
    result = subprocess.run(
        [sys.executable, "-c", code, "solve", "--spectrum", str(spectrum_file),
         "--targets", "2,5.5", "--out", str(out)],
        capture_output=True, text=True,
        env=ENV, check=True,
    )
    assert result.stdout.split("\n") == ["[]", "[]", ""]
    assert parse_report(out)[0]["converged"] == "true"


@pytest.mark.parametrize("golden", HELP_TEXTS, ids=[p.stem for p in HELP_TEXTS])
def test_help_text_matches_golden(golden, monkeypatch, capsys):
    # argparse wraps to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if golden.stem == "qbg" else [golden.stem, "--help"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()


def test_every_subcommand_has_a_golden_help_text():
    assert sorted(p.stem for p in HELP_TEXTS) == sorted(["qbg", *_SUBCOMMANDS])


class TestRecordedReports:
    """Every case recorded in perfbench/cli_cases.json, run in process, must
    reproduce its recorded report byte for byte."""

    @pytest.mark.parametrize("case", RECORDED, ids=[c["id"] for c in RECORDED])
    def test_bytes_match_recording(self, case, tmp_path):
        for name, text in case["files"].items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        args = [a.replace("{dir}", str(tmp_path)) for a in case["args"]]
        out = tmp_path / "report.csv"
        assert main([case["subcommand"], *args, "--out", str(out)]) == 0
        assert out.read_bytes() == case["expected"].encode("utf-8")
