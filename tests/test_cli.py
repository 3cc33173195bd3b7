import json
import math

import pytest

from selberg_gas import cli


def run_document(argv):
    ns = cli.build_parser().parse_args(argv)
    return cli.execute(ns), ns


class TestSubcommands:
    def test_selberg_value(self):
        doc, _ = run_document(["selberg", "--n", "2", "--lambda1", "0", "--lambda2", "0"])
        assert doc["results"][0]["value"] == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert doc["config"]["subcommand"] == "selberg"
        assert doc["provenance"]["version"]

    def test_morris_value(self):
        doc, _ = run_document(["morris", "--n", "1", "--lambda1", "2", "--lambda2", "1"])
        assert doc["results"][0]["value"] == pytest.approx(3.0, rel=1e-13)

    def test_dm_asym(self):
        doc, _ = run_document(["dm-asym", "--n", "14", "--x", "0.2", "--y", "0.8"])
        assert doc["results"][0]["value"] > 0.0
        assert doc["config"]["n"] == 14 and doc["config"]["x"] == 0.2

    def test_duality_check(self):
        doc, _ = run_document(["duality-check", "--t", "0.3"])
        assert doc["results"][0]["rel_diff"] <= 1e-6

    @pytest.mark.parametrize("n", ["2", "5"])
    def test_duality_check_fourth_power(self, n, capsys):
        code = cli.main(["duality-check", "--n", n, "--m", "4", "--t", "0.3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["m"] == 4
        assert doc["results"][0]["rel_diff"] <= 1e-12

    @pytest.mark.parametrize("n,t", [("2", "0"), ("5", "1")])
    def test_duality_check_at_the_endpoints(self, n, t, capsys):
        # a charge at 0 or 1 raises that endpoint's weight exponent
        assert cli.main(["duality-check", "--n", n, "--t", t]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["rel_diff"] <= 1e-12

    def test_orbitals_rows(self):
        doc, _ = run_document(["orbitals", "--j-max", "3"])
        assert len(doc["results"]) == 4
        assert doc["results"][0]["scaled_occupation"] == pytest.approx(
            math.pi * math.sqrt(2.0), rel=1e-12)

    def test_sample_jue_rows(self):
        doc, ns = run_document(["sample-jue", "--n", "3", "--m-samples", "2",
                                "--seed", "5"])
        assert len(doc["results"]) == 6
        assert doc["provenance"]["seed"] == 5
        rerun, _ = run_document(["sample-jue", "--n", "3", "--m-samples", "2",
                                 "--seed", "5"])
        assert rerun == doc

    def test_dm_mc_small(self):
        doc, _ = run_document(["dm-mc", "--n", "3", "--x", "0.3", "--y", "0.7",
                               "--m-samples", "150", "--seed", "1"])
        row = doc["results"][0]
        assert row["value"] > 0.0 and row["std_error"] > 0.0
        assert row["m_samples"] == 150

    def test_fh_toeplitz_rows(self):
        doc, _ = run_document(["fh-toeplitz", "--sizes", "4,8,12,16", "--q", "0.5"])
        assert [r["N"] for r in doc["results"]] == [4, 8, 12, 16]

    def test_fh_jacobi_rows(self):
        doc, _ = run_document(["fh-jacobi", "--sizes", "4,6,8,10"])
        assert len(doc["results"]) == 4
        assert all("delta" in r for r in doc["results"])


class TestRendering:
    def test_json_round_trip_idempotent(self):
        doc, _ = run_document(["selberg", "--n", "2", "--lambda1", "0.5",
                               "--lambda2", "0.5"])
        text = cli.render(doc, "json")
        assert cli.render(json.loads(text), "json") == text

    def test_csv_header_and_precision(self):
        doc, _ = run_document(["selberg", "--n", "2", "--lambda1", "0.5",
                               "--lambda2", "0.5"])
        text = cli.render(doc, "csv")
        lines = text.strip().split("\n")
        assert any(line.startswith("# subcommand=selberg") for line in lines)
        assert "log_value,value" in lines
        value = float(lines[-1].split(",")[1])
        assert value == doc["results"][0]["value"]  # 17 digits round-trip

    def test_out_file(self, tmp_path):
        path = tmp_path / "result.json"
        code = cli.main(["selberg", "--n", "1", "--lambda1", "0", "--lambda2", "0",
                         "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["results"][0]["value"] == pytest.approx(1.0)

    def test_thread_flag_does_not_change_bytes(self):
        args = ["dm-mc", "--n", "4", "--x", "0.2", "--y", "0.8",
                "--m-samples", "120", "--seed", "3"]
        doc1, _ = run_document(args + ["--threads", "1"])
        doc2, _ = run_document(args + ["--threads", "3"])
        assert cli.render(doc1, "json") == cli.render(doc2, "json")
        assert cli.render(doc1, "csv") == cli.render(doc2, "csv")


class TestErrors:
    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["selberg", "--n", "2"])
        assert err.value.code == 2

    def test_numerical_error_exit_one(self, capsys):
        code = cli.main(["selberg", "--n", "2", "--lambda1", "-2", "--lambda2", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unsettled_duality_ladder_exits_one(self, capsys):
        code = cli.main(["duality-check", "--n", "40", "--t", "0.07",
                         "--lambda1", "-0.5", "--lambda2", "-0.5"])
        assert code == 1
        assert "Richardson" in capsys.readouterr().err

    def test_bad_thread_count_is_usage_error(self, monkeypatch):
        argv = ["selberg", "--n", "1", "--lambda1", "0", "--lambda2", "0"]
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit) as err:
                cli.build_parser().parse_args(argv + ["--threads", bad])
            assert err.value.code == 2
        monkeypatch.setenv("SELBERG_GAS_THREADS", "abc")
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert cli.build_parser().parse_args(argv + ["--threads", "2"]).threads == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["frobnicate"])
        assert err.value.code == 2
