import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import selberg_gas
from selberg_gas import acceptance, cli
from selberg_gas import ensembles
from selberg_gas import quadrature as quad
from selberg_gas.exact import BOUNDARY_DIRICHLET, BOX_EXPONENTS

from csv_oracle import render_csv
from sampler_oracle import block_size


# the float options of each subcommand, and arguments that parse without them
FLOAT_OPTIONS = {
    "selberg": ["--lambda1", "--lambda2"],
    "morris": ["--lambda1", "--lambda2"],
    "dm-asym": ["--x", "--y"],
    "dm-mc": ["--x", "--y"],
    "duality-check": ["--t", "--lambda1", "--lambda2"],
    "fh-jacobi": ["--q", "--y", "--lambda1", "--lambda2"],
    "fh-toeplitz": ["--q"],
}
FLOAT_BASE_ARGV = {
    "selberg": ["selberg", "--n", "2", "--lambda1", "0", "--lambda2", "0"],
    "morris": ["morris", "--n", "1", "--lambda1", "2", "--lambda2", "1"],
    "dm-asym": ["dm-asym", "--n", "4", "--x", "0.2", "--y", "0.8"],
    "dm-mc": ["dm-mc", "--n", "4", "--x", "0.2", "--y", "0.8", "--m-samples", "100"],
    "duality-check": ["duality-check", "--t", "0.3"],
    "fh-jacobi": ["fh-jacobi"],
    "fh-toeplitz": ["fh-toeplitz"],
}


def run_document(argv):
    ns = cli.build_parser().parse_args(argv)
    return cli.execute(ns), ns


def as_rows(document):
    """`document` with its table of columns restated as one dict per row,
    row i holding value i of every column; every column is as long."""
    columns = document["results"]
    lengths = {len(values) for values in columns.values()}
    assert len(lengths) <= 1, lengths
    rows = [{name: values[i] for name, values in columns.items()}
            for i in range(max(lengths, default=0))]
    return {**document, "results": rows}


class TestSubcommands:
    def test_selberg_value(self):
        doc, _ = run_document(["selberg", "--n", "2", "--lambda1", "0", "--lambda2", "0"])
        assert doc["results"]["value"][0] == pytest.approx(1.0 / 6.0, rel=1e-13)
        assert doc["config"]["subcommand"] == "selberg"
        assert doc["provenance"]["version"]

    def test_morris_value(self):
        doc, _ = run_document(["morris", "--n", "1", "--lambda1", "2", "--lambda2", "1"])
        assert doc["results"]["value"][0] == pytest.approx(3.0, rel=1e-13)

    def test_dm_asym(self):
        doc, _ = run_document(["dm-asym", "--n", "14", "--x", "0.2", "--y", "0.8"])
        assert doc["results"]["value"][0] > 0.0
        assert doc["config"]["n"] == 14 and doc["config"]["x"] == 0.2

    def test_duality_check(self):
        doc, _ = run_document(["duality-check", "--t", "0.3"])
        assert doc["results"]["rel_diff"][0] <= 1e-6

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

    def test_duality_check_with_a_non_integer_wrap_power(self, capsys):
        # p = lambda1 + lambda2 + n = 1.25: the circular weight has a
        # |theta - pi|^p wrap singularity, on which midpoint grids do not
        # converge like h^2
        code = cli.main(["duality-check", "--n", "2", "--m", "4", "--t", "0.125",
                         "--lambda1", "-0.375", "--lambda2", "-0.375"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["rel_diff"] <= 1e-12

    def test_duality_check_rel_diff_below_1e_300(self):
        # lhs is about 4.6e-302: a floor of 1e-300 on the divisor printed
        # 3.87e-15 here, against the true 8.36e-14
        doc, _ = run_document(["duality-check", "--n", "252", "--t", "0.5"])
        (lhs,), (rhs,), (rel_diff,) = (doc["results"][key] for key in ("lhs", "rhs", "rel_diff"))
        assert 0.0 < lhs < 1e-300
        assert rel_diff == abs(lhs - rhs) / lhs

    def test_validate_document_is_json(self, monkeypatch, capsys):
        # criterion 6 computes its verdict from numpy values
        monkeypatch.setattr(acceptance, "run_all",
                            lambda **kwargs: [acceptance.criterion_6_toeplitz()])
        assert cli.main(["validate"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert row["criterion"] == 6 and row["passed"] is True

    def test_orbitals_rows(self):
        doc, _ = run_document(["orbitals", "--j-max", "3"])
        assert all(len(values) == 4 for values in doc["results"].values())
        assert doc["results"]["scaled_occupation"][0] == pytest.approx(
            math.pi * math.sqrt(2.0), rel=1e-12)

    def test_sample_jue_rows(self):
        doc, ns = run_document(["sample-jue", "--n", "3", "--m-samples", "2",
                                "--seed", "5"])
        assert doc["results"]["sample"] == [0, 0, 0, 1, 1, 1]
        assert doc["results"]["index"] == [0, 1, 2, 0, 1, 2]
        assert len(doc["results"]["eigenvalue"]) == 6
        assert doc["provenance"]["seed"] == 5
        rerun, _ = run_document(["sample-jue", "--n", "3", "--m-samples", "2",
                                 "--seed", "5"])
        assert rerun == doc

    def test_dm_mc_small(self):
        doc, _ = run_document(["dm-mc", "--n", "3", "--x", "0.3", "--y", "0.7",
                               "--m-samples", "150", "--seed", "1"])
        columns = doc["results"]
        assert columns["value"][0] > 0.0 and columns["std_error"][0] > 0.0
        assert columns["m_samples"] == [150]

    def test_fh_toeplitz_rows(self):
        doc, _ = run_document(["fh-toeplitz", "--sizes", "4,8,12,16", "--q", "0.5"])
        assert doc["results"]["N"] == [4, 8, 12, 16]

    def test_fh_jacobi_rows(self):
        doc, _ = run_document(["fh-jacobi", "--sizes", "4,6,8,10"])
        assert len(doc["results"]["delta"]) == 4

    def test_fh_jacobi_decreasing_tail_needs_four_sizes(self):
        # rows carry no tail verdict, whatever the request's length;
        # criterion 5 judges the drift from `delta` itself
        for sizes in ("8,16,32", "8,16,32,48"):
            doc, _ = run_document(["fh-jacobi", "--sizes", sizes])
            assert set(doc["results"]) == {"n", "log_exact", "log_predicted", "delta"}, sizes

    @pytest.mark.parametrize("sizes, expected", [("8,16,32,48", True), ("48,8,32,16", False)])
    def test_fh_jacobi_decreasing_tail_follows_request_order(self, sizes, expected):
        # strict decrease of the last three |delta| in request order, read
        # from `delta`; no row carries a verdict of its own
        doc, _ = run_document(["fh-jacobi", "--sizes", sizes])
        columns = doc["results"]
        tail = [abs(delta) for delta in columns["delta"][-3:]]
        assert (tail[0] > tail[1] > tail[2]) is expected
        assert "decreasing_tail" not in columns

    @pytest.mark.parametrize("subcommand, key", [("fh-jacobi", "n"), ("fh-toeplitz", "N")])
    def test_ladder_rows_follow_request_order(self, subcommand, key):
        doc, _ = run_document([subcommand, "--sizes", "12,4,12,8,6"])
        columns = doc["results"]
        assert columns[key] == [12, 4, 12, 8, 6]
        assert columns["log_exact"][0] == columns["log_exact"][2]
        single, _ = run_document([subcommand, "--sizes", "8"])
        assert single["results"]["log_exact"][0] == pytest.approx(
            columns["log_exact"][3], rel=0.0, abs=1e-12)


# one argv per subcommand and the keys and value types of its config; the
# run flags --format, --out, --seed and --threads are never part of it
CONFIGS = [
    (["selberg", "--n", "2", "--lambda1", "0", "--lambda2", "0.5", "--format", "csv"],
     {"subcommand": str, "n": int, "lambda1": float, "lambda2": float}),
    (["morris", "--n", "1", "--lambda1", "2", "--lambda2", "1"],
     {"subcommand": str, "n": int, "a": float, "b": float}),
    (["dm-asym", "--n", "14", "--x", "0.2", "--y", "0.8"],
     {"subcommand": str, "n": int, "x": float, "y": float, "boundary": str}),
    (["dm-mc", "--n", "3", "--x", "0.3", "--y", "0.7", "--m-samples", "100",
      "--seed", "3", "--threads", "2"],
     {"subcommand": str, "n": int, "x": float, "y": float, "boundary": str,
      "m_samples": int}),
    (["table1", "--n", "4", "--m-samples", "100"],
     {"subcommand": str, "n": int, "m_samples": int}),
    (["duality-check", "--t", "0.3"],
     {"subcommand": str, "n": int, "m": int, "t": float, "lambda1": float,
      "lambda2": float}),
    (["orbitals", "--j-max", "3"], {"subcommand": str, "j_max": int, "n": int}),
    (["sample-jue", "--n", "3", "--m-samples", "2"],
     {"subcommand": str, "n": int, "m_samples": int}),
    (["fh-jacobi"],
     {"subcommand": str, "sizes": str, "q": float, "y": float, "lambda1": float,
      "lambda2": float}),
    (["fh-toeplitz", "--sizes", "4,8", "--q", "0.5"],
     {"subcommand": str, "sizes": str, "q": float}),
    (["validate", "--seed", "1"], {"subcommand": str}),
]


def test_configs_cover_every_subcommand():
    assert {argv[0] for argv, _ in CONFIGS} == set(cli._SUBCOMMANDS)


@pytest.mark.parametrize("argv, types", CONFIGS, ids=[argv[0] for argv, _ in CONFIGS])
def test_config_keys_and_types(argv, types, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: [])
    doc, _ = run_document(argv)
    config = doc["config"]
    assert sorted(config) == sorted(types)
    assert {key: type(value) for key, value in config.items()} == types
    assert config["subcommand"] == argv[0]
    if argv[0] == "fh-jacobi":
        assert config["sizes"] == "8,16,32,48"
    if argv[0] == "fh-toeplitz":
        assert config["sizes"] == "4,8"


CSV_SPECIAL_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                      2.2250738585072009e-308, 0.1, -2.5e-300, 1e300)
CSV_TEXT = st.text(alphabet=st.sampled_from('ab,"\n%sd é'), max_size=8)
CSV_FLOATS = st.one_of(st.sampled_from(CSV_SPECIAL_FLOATS), st.floats())
# the values of one column: Python floats, ints, bools, None and strings,
# numpy scalars, or any of these mixed
CSV_KINDS = (CSV_FLOATS, st.integers(), st.booleans(), st.none(), CSV_TEXT,
             CSV_FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
             st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
CSV_KINDS += (st.one_of(*CSV_KINDS),)


@st.composite
def csv_documents(draw):
    kinds = draw(st.lists(st.sampled_from(CSV_KINDS), min_size=1, max_size=4))
    names = draw(st.lists(CSV_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    n_rows = draw(st.integers(min_value=1, max_value=6))
    columns = {name: draw(st.lists(kind, min_size=n_rows, max_size=n_rows))
               for name, kind in zip(names, kinds)}
    return {"config": {"label": draw(CSV_TEXT)}, "provenance": {"seed": draw(st.none())},
            "results": columns}


def fake_suite():
    # two results whose text needs quoting, for `validate` without its cost
    return [acceptance.CriterionResult(1, "one, quoted", True, 'detail "a", b'),
            acceptance.CriterionResult(2, "two", False, "0.5")]


class TestRendering:
    def test_json_round_trip_idempotent(self):
        doc, _ = run_document(["selberg", "--n", "2", "--lambda1", "0.5",
                               "--lambda2", "0.5"])
        text = cli.render(doc, "json")
        assert json.loads(text) == as_rows(doc)
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize("argv", [argv for argv, _ in CONFIGS],
                             ids=[argv[0] for argv, _ in CONFIGS])
    def test_writers_match_the_row_restatements(self, argv, monkeypatch):
        # JSON holds one object per row and CSV one line per row, in the
        # bytes that the standard library and the per-field writer give for
        # rows built from the columns
        monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: fake_suite())
        doc, _ = run_document(argv)
        rows = as_rows(doc)
        assert rows["results"]
        assert cli.render(doc, "json") == json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert cli.render(doc, "csv") == render_csv(rows)

    def test_table_of_no_rows_prints_no_column_line(self, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: [])
        doc, _ = run_document(["validate", "--seed", "1"])
        assert doc["results"] == {"criterion": [], "name": [], "passed": [], "detail": []}
        assert cli.render(doc, "csv") == render_csv(as_rows(doc))
        assert json.loads(cli.render(doc, "json"))["results"] == []

    def test_csv_header_and_precision(self):
        doc, _ = run_document(["selberg", "--n", "2", "--lambda1", "0.5",
                               "--lambda2", "0.5"])
        text = cli.render(doc, "csv")
        lines = text.strip().split("\n")
        assert any(line.startswith("# subcommand=selberg") for line in lines)
        assert "log_value,value" in lines
        value = float(lines[-1].split(",")[1])
        assert value == doc["results"]["value"][0]  # 17 digits round-trip

    def test_out_file(self, tmp_path):
        path = tmp_path / "result.json"
        code = cli.main(["selberg", "--n", "1", "--lambda1", "0", "--lambda2", "0",
                         "--out", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["results"][0]["value"] == pytest.approx(1.0)

    @pytest.mark.parametrize("value, text", [
        ("a,b", '"a,b"'),
        ('say "hi"', '"say ""hi"""'),
        ("two\nlines", '"two\nlines"'),
        ('"', '""""'),
        ("plain", "plain"),
        ("", ""),
        (0.1, "0.10000000000000001"),
        (-3, "-3"),
        (True, "True"),
    ])
    def test_csv_field_quoting(self, value, text):
        # quoted only when the text holds a comma, a quote or a newline;
        # inner quotes are doubled
        assert cli._csv_field(value) == text

    def test_csv_bytes_with_quoted_field(self):
        # the whole rendered text, for a row that mixes a string needing
        # quotes with int, float and bool fields, which are never scanned
        doc = {"config": {"subcommand": "demo", "label": "a,b"},
               "results": {"name": ['say "hi", twice', "plain"], "n": [3, -1],
                           "value": [0.1, -2.5e-300], "ok": [True, False]},
               "provenance": {"seed": None, "version": "v"}}
        assert cli.render(doc, "csv").encode() == (
            b"# label=a,b\n# subcommand=demo\n# seed=None\n# version=v\n"
            b"name,n,value,ok\n"
            b'"say ""hi"", twice",3,0.10000000000000001,True\n'
            b"plain,-1,-2.5e-300,False\n")

    def test_csv_columns_of_mixed_types_keep_the_field_text(self):
        # a column that mixes types, or holds a subclass such as numpy's
        # float64, is formatted value by value; the text is _csv_field's
        columns = {"x": [0.1, np.float64(0.1), 2.5], "k": [3, np.int64(-3), 7],
                   "s": [True, None, "a,b"]}
        text = cli.render({"config": {}, "provenance": {}, "results": columns}, "csv")
        assert text == ("x,k,s\n0.10000000000000001,3,True\n"
                        '0.10000000000000001,-3,None\n2.5,7,"a,b"\n')

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_sample_jue_threads_keep_bytes(self, extra, monkeypatch, capsys):
        # blocks depend on n alone, so M = B - 1 is one partial block and
        # M = B + 1 a full block plus one row
        block = block_size(3)
        seen = []
        draw = ensembles.sample_jacobi_matrices

        def recording(params, master_seed, M):
            seen.append((master_seed, M))
            return draw(params, master_seed, M)

        # the handler looks the sampler up in its module when it runs
        monkeypatch.setattr(ensembles, "sample_jacobi_matrices", recording)
        outputs = []
        for threads in (1, 2, 4):
            assert cli.main(["sample-jue", "--n", "3", "--m-samples", str(block + extra),
                             "--seed", "9", "--format", "csv",
                             "--threads", str(threads)]) == 0
            outputs.append(capsys.readouterr().out)
        # every run reaches the sampler with the same request
        assert seen == [(9, block + extra)] * 3
        # five header comments, the column line and n rows per sample
        assert outputs[0].count("\n") == 6 + 3 * (block + extra)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @given(document=csv_documents())
    @example(document={"config": {}, "provenance": {}, "results": {
        "x": list(CSV_SPECIAL_FLOATS), "s": ["%s%d%%"] * len(CSV_SPECIAL_FLOATS)}})
    def test_csv_matches_per_field_writer(self, document):
        assert cli.render(document, "csv") == render_csv(as_rows(document))

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

    def test_exhausted_memory_is_an_error(self, monkeypatch, capsys):
        # numpy's failed allocation raises a MemoryError subclass; the stand-in
        # raises one without allocating anything
        def exhausted(ns):
            raise MemoryError("Unable to allocate 2.98 GiB for an array")

        monkeypatch.setitem(cli._SUBCOMMANDS, "sample-jue", exhausted)
        assert cli.main(["sample-jue", "--n", "20000"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: Unable to allocate 2.98 GiB for an array\n"

    def test_bad_weight_names_the_weight(self, capsys):
        assert cli.main(["fh-jacobi", "--lambda1", "-1.5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: weight exponents must exceed -1, got (-1.5, 0.5)\n"

    def test_bad_thread_count_is_usage_error(self):
        argv = ["dm-mc", "--n", "2", "--x", "0.2", "--y", "0.8", "--m-samples", "100"]
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit) as err:
                cli.build_parser().parse_args(argv + ["--threads", bad])
            assert err.value.code == 2
        assert cli.build_parser().parse_args(argv).threads == 1
        assert cli.build_parser().parse_args(argv + ["--threads", "2"]).threads == 2

    @pytest.mark.parametrize("argv", [
        ["dm-mc", "--n", "2", "--x", "0.2", "--y", "0.8", "--m-samples", "100", "--seed", "-1"],
        ["validate", "--seed", "-3"]])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        # rejected by the parser, not by numpy's seeding after the run began
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        out, message = capsys.readouterr()
        assert out == "" and f"argument --seed: must be an integer >= 0, got '{argv[-1]}'" in message
        assert cli.build_parser().parse_args(argv[:-1] + ["0"]).seed == 0

    def test_threads_only_on_seeded_subcommands(self, capsys):
        # --threads is read only where the work is seeded
        with pytest.raises(SystemExit) as err:
            cli.main(["selberg", "--n", "1", "--lambda1", "0", "--lambda2", "0",
                      "--threads", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["duality-check", "--n", "400", "--t", "0.3"],
                                      ["duality-check", "--n", "200", "--m", "4", "--t", "0.3"]])
    def test_underflowed_duality_sides_are_an_error(self, argv, capsys):
        # both sides underflow to 0.0 here, which would print rel_diff 0.0
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_underflowed_jacobi_side_gives_its_log(self, capsys):
        assert cli.main(["duality-check", "--n", "300", "--t", "0.3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "error: duality Jacobi side underflows a float: log -826.58")

    @pytest.mark.parametrize("argv, edges", [
        (["fh-jacobi", "--y", "0.9999999999999", "--sizes", "8,200"],
         "order 230: float64 cannot hold its nodes apart between the charge at "
         "0.9999999999999 and the wall 1"),
        (["duality-check", "--t", "0.9999999999999999"],
         "order 32: float64 cannot hold its nodes apart between the charge at "
         "0.9999999999999999 and the wall 1")])
    def test_charge_next_to_the_upper_wall_is_named(self, argv, edges, capsys):
        # the floats near 1 are 1.1e-16 apart, so the short panel's nodes collide
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: charge rule of {edges}\n"

    @pytest.mark.parametrize("argv", [["fh-jacobi", "--y", "0.0000000000001", "--sizes", "8,200"],
                                      ["duality-check", "--t", "0.0000000000000001"]])
    def test_charge_next_to_the_lower_wall_computes(self, argv, capsys):
        # the mirror images of the charges above: near 0 the floats are dense
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_overflowing_value_is_an_error(self, capsys):
        assert cli.main(["morris", "--n", "200", "--lambda1", "5", "--lambda2", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Morris integral overflows a float: log 958.67")

    @pytest.mark.parametrize("q", ["1e16", "1e200"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_an_error(self, q, fmt, capsys):
        # log1p(-1) = -inf at q = 1e16, a * a overflows to NaN at 1e200;
        # neither is a result, and JSON cannot hold either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fh-toeplitz", "--q", q, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: fh-toeplitz log_exact is not finite: ")

    @pytest.mark.parametrize("argv, message", [
        (["fh-jacobi", "--q", "1e308"], "singularity exponent 2q overflows a float at q = 1e+308"),
        (["fh-jacobi", "--q", "1e5", "--sizes", "8"],
         "Gauss-Jacobi exponents (200000.0, 0.5) put the rule's scale"),
        (["fh-toeplitz", "--q", "1e308"], "singularity exponent 2q overflows a float"),
        # with both exponents at 1e308 the log itself, about -+2.8e308, is
        # beyond a float; with one, the value is computed (see below)
        (["selberg", "--n", "2", "--lambda1", "1e308", "--lambda2", "1e308"],
         "log_gamma(1e+308) overflows a float"),
        (["morris", "--n", "2", "--lambda1", "1e308", "--lambda2", "1e308"],
         "log_gamma(1e+308) overflows a float"),
    ])
    def test_out_of_range_option_names_the_quantity(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + message)

    @pytest.mark.parametrize("argv, message", [
        (["selberg", "--n", "2", "--lambda1", "1e308", "--lambda2", "0"],
         "Selberg integral underflows a float: log -2836.09"),
        (["morris", "--n", "2", "--lambda1", "1e154", "--lambda2", "1e154"],
         "Morris integral overflows a float: log 2.77258872223"),
    ])
    def test_large_exponent_names_its_finite_log(self, argv, message, capsys):
        # S_2(a, 0) = 2 / ((a+1)(a+2)^2(a+3)) and M_2(a, a) ~ 16^a / (pi a^2):
        # formerly "log_gamma(1e+308) overflows a float", and for Morris
        # "underflows a float: log -inf" with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + message)

    def test_underflowing_value_is_an_error(self, capsys):
        # the value would print as 0.0 beside its finite log
        assert cli.main(["selberg", "--n", "300", "--lambda1", "5", "--lambda2", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "error: Selberg integral underflows a float: log -126854.76")

    def test_out_into_a_missing_directory_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert cli.main(["dm-mc", "--n", "2", "--x", "0.2", "--y", "0.8",
                         "--m-samples", "100", "--out", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv", [["fh-toeplitz", "--sizes", "0,4,8,16"],
                                      ["fh-jacobi", "--sizes", "8,4,-1,16"],
                                      ["sample-jue", "--n", "3", "--m-samples", "0"],
                                      ["sample-jue", "--n", "3", "--m-samples", "-2"],
                                      ["orbitals", "--j-max", "-1"]])
    def test_nonpositive_size_is_usage_error(self, argv, capsys):
        expected = {"--sizes": "every size must be >= 1",
                    "--m-samples": "argument --m-samples: must be an integer >= 1",
                    "--j-max": "argument --j-max: must be an integer >= 0"}[argv[-2]]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("subcommand, option", [
        (sub, option) for sub, options in FLOAT_OPTIONS.items() for option in options])
    def test_non_finite_float_is_usage_error(self, subcommand, option, bad, capsys):
        # float() reads these; the computations behind them failed with
        # messages that named neither the option nor the value.  "--q -inf"
        # would read -inf as an option, so the value is joined by "="
        with pytest.raises(SystemExit) as err:
            cli.main(FLOAT_BASE_ARGV[subcommand] + [f"{option}={bad}"])
        assert err.value.code == 2
        out, message = capsys.readouterr()
        assert out == "" and f"argument {option}: must be a finite number, got '{bad}'" in message

    def test_every_float_option_is_checked_finite(self):
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        found = {}
        for sub, parser in subparsers.choices.items():
            for action in parser._actions:
                assert action.type is not float, (sub, action.option_strings)
                if action.type is cli._finite_float:
                    found.setdefault(sub, []).append(action.option_strings[0])
        assert found == FLOAT_OPTIONS

    @pytest.mark.parametrize("subcommand", ["dm-asym", "dm-mc"])
    def test_boundary_choices_are_the_box_rows(self, subcommand):
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        boundary, = (action for action in subparsers.choices[subcommand]._actions
                     if action.dest == "boundary")
        assert boundary.choices == tuple(BOX_EXPONENTS) == ("dirichlet", "neumann")
        assert boundary.default == BOUNDARY_DIRICHLET

    @pytest.mark.parametrize("argv", [["fh-jacobi", "--sizes", "8,x"],
                                      ["fh-toeplitz", "--sizes", "8,,16"]])
    def test_non_integer_size_is_usage_error(self, argv, capsys):
        # the message speaks of sizes, not of the parser's private function
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        out, message = capsys.readouterr()
        assert out == "" and message.endswith(
            f"error: argument --sizes: every size must be an integer, got '{argv[-1]}'\n")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["frobnicate"])
        assert err.value.code == 2


class TestParserCache:
    SEEDED = ["sample-jue", "--n", "2", "--m-samples", "1", "--seed", "4"]
    PLAIN = ["selberg", "--n", "2", "--lambda1", "0", "--lambda2", "0"]

    def test_one_parser_for_a_fixed_environment(self):
        assert cli.build_parser() is cli.build_parser()

    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        assert cli.main(self.PLAIN) == 0
        # the top-level parser and its subparsers, once
        assert built.count("selberg-gas") == 1 and len(built) == 1 + len(cli._SUBCOMMANDS)
        assert cli.main(self.SEEDED) == 0
        assert len(built) == 1 + len(cli._SUBCOMMANDS)

    def test_usage_error_leaves_no_state(self, capsys):
        assert cli.main(self.PLAIN) == 0
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            cli.main(["selberg", "--n", "2", "--lambda1", "0"])
        assert err.value.code == 2
        capsys.readouterr()
        assert cli.main(self.PLAIN) == 0
        assert capsys.readouterr().out == expected
        # a namespace holds only the options of its own subcommand
        ns = cli.build_parser().parse_args(["orbitals"])
        assert vars(ns) == {"subcommand": "orbitals", "j_max": 8, "n": 1,
                            "format": "json", "out": None}


def child_env(**variables) -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(selberg_gas.__file__).resolve().parents[1])
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def loaded_after(statements: str, package: str) -> list:
    """The modules of `package` loaded in a fresh interpreter after it runs
    `statements`."""
    probe = ("import sys\n" + statements
             + f"\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                         text=True, check=True).stdout
    return out.split()


CLI_START = "import selberg_gas.cli as cli; cli.build_parser()\n"


def scipy_loaded_after(statements: str) -> list:
    """The scipy modules loaded in a fresh interpreter after it imports the
    CLI, builds its parser and runs `statements`."""
    return loaded_after(CLI_START + statements, "scipy")


def test_cli_import_leaves_the_acceptance_suite_out():
    # only `validate` reads the suite, and imports it when it runs
    loaded = loaded_after(CLI_START, "selberg_gas")
    assert "selberg_gas.cli" in loaded and "selberg_gas.acceptance" not in loaded


def test_package_root_loads_no_submodule():
    # the root binds `__version__` alone; names come from their modules
    assert loaded_after("import selberg_gas", "selberg_gas") == ["selberg_gas"]


def test_cli_import_leaves_scipy_linalg_out():
    # importing scipy (scipy.special alone is about 0.35 s) would add to the
    # start-up cost of every CLI call; the functions that need it import it
    # on their first use.  Import plus parser is the whole of a request's
    # set-up.
    assert scipy_loaded_after("") == []


# small runs of the subcommands that call no scipy function
SCIPY_FREE_RUNS = [
    ["selberg", "--n", "3", "--lambda1", "0.5", "--lambda2", "-0.5"],
    ["morris", "--n", "3", "--lambda1", "0.5", "--lambda2", "1"],
    ["dm-asym", "--n", "14", "--x", "0.2", "--y", "0.8"],
    ["dm-mc", "--n", "3", "--x", "0.3", "--y", "0.7", "--m-samples", "100",
     "--boundary", "neumann"],
    ["table1", "--n", "4", "--m-samples", "100"],
    ["orbitals", "--j-max", "3"],
    ["sample-jue", "--n", "3", "--m-samples", "2", "--format", "csv"],
    # the benchmark's request; n = 50 takes LAPACK's blocked reduction
    ["sample-jue", "--n", "50", "--m-samples", "40", "--format", "csv"],
    # n = 129, the last of the dense eigensolver's sizes, and 130 and 300,
    # where the few samples do not pay for loading scipy.linalg
    ["sample-jue", "--n", "129", "--m-samples", "3", "--format", "csv"],
    ["sample-jue", "--n", "130", "--m-samples", "3", "--format", "csv"],
    ["sample-jue", "--n", "300", "--format", "csv"],
    ["fh-jacobi"],  # rules of order 78, below the dense eigensolver's limit
    ["fh-jacobi", "--sizes", "8,16,32,99"],  # order 129, the last of numpy's steps
]


def test_scipy_free_subcommands_load_no_scipy():
    assert {run[0] for run in SCIPY_FREE_RUNS} <= set(cli._SUBCOMMANDS)
    runs = ("import contextlib, io\n"
            f"for argv in {SCIPY_FREE_RUNS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if cli.main(argv) != 0:\n"
            "            raise SystemExit(f'failed: {argv}')\n")
    assert scipy_loaded_after(runs) == []


def test_tridiagonal_solver_loads_scipy_where_the_work_pays_for_it():
    # from order 130 on the sampler's eigenvalues load scipy.linalg once
    # rows * n^3 reaches ensembles._SCIPY_LOAD_WORK, here lowered to two
    # matrices of order 130; the Gauss rule builder loads it at any such order
    def solve(rows):
        return ("import numpy as np\n"
                "from selberg_gas import ensembles\n"
                "ensembles._SCIPY_LOAD_WORK = 2 * 130 ** 3\n"
                f"ensembles._tridiagonal_eigenvalues(np.ones(({rows}, 130)),"
                f" np.full(({rows}, 129), 0.1))\n")

    assert loaded_after(solve(1), "scipy") == []
    assert "scipy.linalg" in loaded_after(solve(2), "scipy")
    rule = "from selberg_gas import quadrature\nquadrature._golub_welsch(130, 0.5, 0.5)\n"
    assert "scipy.linalg" in loaded_after(rule, "scipy")


def test_cli_import_loads_no_numpy():
    # numpy would be about three quarters of the import's cost; only the
    # handlers that compute with arrays load it, when they run
    assert loaded_after(CLI_START, "numpy") == []


def test_cli_import_loads_no_dataclasses():
    # `exact`'s records are plain classes: `dataclasses` and the `inspect`
    # it imports were the largest part of the import once numpy left it
    assert loaded_after(CLI_START, "dataclasses") == []
    assert loaded_after(CLI_START, "inspect") == []


# runs that compute only gamma and Barnes-G logs, or stop in the parser,
# with the exit code each gives
NUMPY_FREE_RUNS = [
    (["selberg", "--n", "3", "--lambda1", "0.5", "--lambda2", "-0.5"], 0),
    (["morris", "--n", "3", "--lambda1", "0.5", "--lambda2", "1"], 0),
    (["dm-asym", "--n", "14", "--x", "0.2", "--y", "0.8", "--boundary", "neumann"], 0),
    (["orbitals", "--j-max", "6", "--n", "50", "--format", "csv"], 0),
    (["--help"], 0),
    (["fh-jacobi", "--sizes", "8,x"], 2),
]


@pytest.mark.parametrize("argv,code", NUMPY_FREE_RUNS,
                         ids=[" ".join(argv) for argv, _ in NUMPY_FREE_RUNS])
def test_closed_form_runs_load_no_numpy(argv, code):
    run = ("import contextlib, io\n"
           "with contextlib.redirect_stdout(io.StringIO()), "
           "contextlib.redirect_stderr(io.StringIO()):\n"
           "    try:\n"
           f"        code = cli.main({argv!r})\n"
           "    except SystemExit as exc:\n"
           "        code = exc.code\n"
           f"if code != {code}:\n"
           "    raise SystemExit(f'exit {code}')\n")
    assert loaded_after(CLI_START + run, "numpy") == []


# `python -m selberg_gas.cli validate` with the suite replaced by one
# criterion that reaches the CLI as the suite does, by its package name
VALIDATE_UNDER_M = """
import argparse, runpy, sys, types
built = []
init = argparse.ArgumentParser.__init__

def counting(parser, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(parser, *args, **kwargs)

def run_all(seed):
    from selberg_gas import cli
    value, = cli.execute(cli.build_parser().parse_args(
        ["selberg", "--n", "2", "--lambda1", "0", "--lambda2", "0"]))["results"]["value"]
    return [types.SimpleNamespace(number=1, name="one module", detail=repr(value),
                                  passed=cli is sys.modules["__main__"])]

argparse.ArgumentParser.__init__ = counting
suite = types.ModuleType("selberg_gas.acceptance")
suite.run_all = run_all
sys.modules[suite.__name__] = suite
sys.argv = ["selberg-gas", "validate", "--format", "csv"]
try:
    runpy.run_module("selberg_gas.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("exit", exc.code, "parsers", built.count("selberg-gas"))
"""


def test_validate_under_dash_m_runs_one_cli_module():
    # run as __main__, the CLI must be the module the suite imports, so that
    # no second copy loads and the criteria parse through its one parser
    out = subprocess.run([sys.executable, "-c", VALIDATE_UNDER_M], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "exit 0 parsers 1"
    assert "\n1,one module,True,0.16666" in out.stdout
    assert out.stderr == "PASS criterion 1: one module\n"


def test_ladders_across_the_blas_step_boundary_share_their_rungs():
    # `--sizes 99` steps with numpy on a rule of order 129, `--sizes 99,100`
    # with BLAS on one of order 130.  Measured worst gap 1.2e-12 at n = 99,
    # of which the rule's extra node a panel makes 1.25e-12 on numpy's steps
    # alone and BLAS's rounding at most 2.8e-13
    for q, y in ((0.5, 0.5), (1.0, 0.1), (0.3, 0.001), (1.7, 0.5)):
        flags = ["--q", repr(q), "--y", repr(y)]
        short = run_document(["fh-jacobi", "--sizes", "99"] + flags)[0]["results"]
        long = run_document(["fh-jacobi", "--sizes", "99,100"] + flags)[0]["results"]
        assert long["n"] == [99, 100]
        for key in ("log_exact", "delta"):
            assert abs(long[key][0] - short[key][0]) <= 2.5e-12, (q, y, key)


def test_output_does_not_depend_on_the_blas_thread_count():
    # a 10,540-node rule: OpenBLAS splits a ddot over 10,000 entries across
    # its threads, so an unblocked sweep printed 2.6628190506471583 under one
    # thread and 2.6628190506467035 under two
    argv = ["fh-jacobi", "--sizes", "1024", "--q", "1", "--y", "0.0005",
            "--lambda1", "0.5", "--lambda2", "0.5"]
    outputs = [subprocess.run([sys.executable, "-m", "selberg_gas.cli", *argv],
                              env=child_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, check=True).stdout for threads in ("1", "2")]
    assert b'"log_exact"' in outputs[0]
    assert outputs[0] == outputs[1]


def test_output_does_not_depend_on_which_orientation_was_built_first(capsys):
    # a charge 2q = 1 between weight exponents -1/2 asks for the panels
    # (lambda1, 2q) left of it and (2q, lambda2) right of it, Gauss-Jacobi
    # rules (1, -1/2) and (-1/2, 1) at order 542: one rule and its mirror
    argv = ["fh-jacobi", "--sizes", "16,128,512", "--q", "0.5", "--y", "0.3",
            "--lambda1", "-0.5", "--lambda2", "-0.5"]
    outputs = []
    for pair in ((1.0, -0.5), (-0.5, 1.0)):
        quad._jacobi_nodes_weights.cache_clear()
        quad._jacobi_nodes_weights(542, *pair)
        quad._jacobi_nodes_weights(542, *pair[::-1])
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert '"log_exact"' in outputs[0]
    assert outputs[0] == outputs[1]


README = Path(__file__).resolve().parents[1] / "README.md"
README_LINES = [line
                for block in re.findall(r"```[a-z]*\n(.*?)```", README.read_text(), re.S)
                for line in block.splitlines() if line.startswith("selberg-gas ")]


def test_readme_lists_every_subcommand():
    subcommands = {shlex.split(line)[1] for line in README_LINES}
    assert subcommands == set(cli._SUBCOMMANDS)


@pytest.mark.parametrize("line", README_LINES, ids=lambda line: line.split()[1])
def test_readme_command_line_parses(line):
    # parse only, execute nothing: README examples must use the real
    # subcommands and flags
    argv = shlex.split(line, comments=True)[1:]
    try:
        ns = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README line does not parse: {line}")
    assert ns.subcommand == argv[0]


@pytest.mark.parametrize("line", [line for line in README_LINES if "--seed" in line],
                         ids=lambda line: line.split()[1])
def test_readme_seeded_runs_match_per_field_writer(line):
    doc, _ = run_document(shlex.split(line, comments=True)[1:])
    assert cli.render(doc, "csv") == render_csv(as_rows(doc))


@pytest.mark.parametrize("argv", [
    ["dm-mc", "--n", "14", "--x", "0.2", "--y", "0.8", "--m-samples", "200"],
    ["table1", "--n", "6", "--m-samples", "100"],
    ["sample-jue", "--n", "3", "--m-samples", "70"]], ids=lambda argv: argv[0])
def test_seeded_runs_start_no_thread(argv, monkeypatch, capsys):
    # --threads is accepted and every run draws on the calling thread
    def refused(thread):
        raise AssertionError(f"a run started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refused)
    assert cli.main(argv + ["--seed", "3", "--threads", "4"]) == 0
    assert capsys.readouterr().out
