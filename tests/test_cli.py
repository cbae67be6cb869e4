"""Command-line surface: exit codes, outputs, file formats, determinism."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from corpus import CORPUS_BY_NAME, SCHEMA_DOCS

import pql
from pql.cli import build_parser, main, parse_args
from pql.errors import PqlError
from pql.store import load_database, save_database
from conftest import ARTICLES_CSV, CUSTOMERS_CSV, NOTIFICATIONS_CSV, TRANSACTIONS_CSV


@pytest.fixture(scope="module")
def retail_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("retail")
    (root / "schema.json").write_text(json.dumps(SCHEMA_DOCS["retail"]))
    (root / "customers.csv").write_text(CUSTOMERS_CSV)
    (root / "articles.csv").write_text(ARTICLES_CSV)
    (root / "transactions.csv").write_text(TRANSACTIONS_CSV)
    (root / "notifications.csv").write_text(NOTIFICATIONS_CSV)
    return root


def schema_arg(retail_dir):
    return ["--schema", str(retail_dir / "schema.json")]


class TestValidate:
    def test_ok_prints_task_and_frame(self, retail_dir, capsys):
        code = main(
            ["validate", *schema_arg(retail_dir), "--query", CORPUS_BY_NAME["shirt_demand"].text]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "task=regression" in out and "future 90d" in out

    def test_misspelled_column_exits_one_with_span(self, retail_dir, capsys):
        code = main(
            ["validate", *schema_arg(retail_dir), "--query",
             "PREDICT TRANSACTIONS.VALUEZ FOR EACH TRANSACTIONS.TRANSACTION_ID"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "VALUEZ" in err and "1:9" in err

    def test_rank_on_sum_rejected(self, retail_dir, capsys):
        code = main(
            ["validate", *schema_arg(retail_dir), "--query",
             "PREDICT SUM(TRANSACTIONS.VALUE, 0, 7, days) RANK FOR EACH CUSTOMERS.CUSTOMER_ID"]
        )
        assert code == 1
        assert "RANK requires" in capsys.readouterr().err

    def test_query_file_source(self, retail_dir, tmp_path, capsys):
        qfile = tmp_path / "q.pql"
        qfile.write_text(CORPUS_BY_NAME["active_spender"].text)
        code = main(["validate", *schema_arg(retail_dir), "--query-file", str(qfile)])
        assert code == 0
        assert "binary_classification" in capsys.readouterr().out

    def test_both_query_sources_rejected(self, retail_dir, capsys):
        code = main(
            ["validate", *schema_arg(retail_dir), "--query", "PREDICT T.C FOR EACH T.K",
             "--query-file", "whatever.pql"]
        )
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_json_diagnostics(self, retail_dir, capsys):
        code = main(
            ["validate", "--json", *schema_arg(retail_dir), "--query", "PREDICT NOPE.X FOR EACH A.B"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["severity"] == "error" and doc[0]["code"] == "unknown-table"


class TestInferAndPlan:
    def test_infer_json(self, retail_dir, capsys):
        code = main(["infer", *schema_arg(retail_dir), "--query", CORPUS_BY_NAME["active_spender"].text])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["task"]["task_type"] == "binary_classification"
        assert doc["timeframe"]["past_micros"] == 40 * 86400 * 10**6

    def test_plan_text_modes(self, retail_dir, capsys):
        q = CORPUS_BY_NAME["active_spender_notified"].text
        assert main(["plan", *schema_arg(retail_dir), "--query", q]) == 0
        training = capsys.readouterr().out
        assert "AssumingFilter" in training
        assert main(["plan", *schema_arg(retail_dir), "--query", q, "--mode", "prediction"]) == 0
        prediction = capsys.readouterr().out
        assert "AssumingFilter" not in prediction

    def test_plan_json(self, retail_dir, capsys):
        q = CORPUS_BY_NAME["impute_value"].text
        assert main(["plan", *schema_arg(retail_dir), "--query", q, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "training"
        assert doc["stages"][1]["note"] == "skipped: static query"


class TestTrainTable:
    def test_writes_csv_and_metadata(self, retail_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["train-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
             "--query", CORPUS_BY_NAME["ny_monthly_spend"].text,
             "--anchors", "1", "--latest", "2024-01-01"]
        )
        assert code == 0
        lines = (out / "training.csv").read_text().splitlines()
        assert lines[0] == "ENTITY,TIMESTAMP,TARGET,SPLIT"
        assert lines[1] == "1,2024-01-01T00:00:00Z,30.0,test"
        assert lines[2] == "2,2024-01-01T00:00:00Z,135.0,test"
        meta = json.loads((out / "training.meta.json").read_text())
        assert meta["task"]["task_type"] == "regression"
        assert meta["anchors"] == ["2024-01-01T00:00:00Z"]

    def test_static_table_has_no_timestamp_column(self, retail_dir, tmp_path):
        out = tmp_path / "static"
        code = main(
            ["train-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
             "--query", CORPUS_BY_NAME["impute_value"].text]
        )
        assert code == 0
        header = (out / "training.csv").read_text().splitlines()[0]
        assert header == "ENTITY,TARGET,SPLIT"

    def test_empty_result_exits_two(self, retail_dir, tmp_path, capsys):
        # An IN member outside int64 matches no row: the members are not cast
        # to the column's dtype, which would raise OverflowError.
        for where in ("CUSTOMERS.LOCATION_ID = 'Atlantis'", "CUSTOMERS.CUSTOMER_ID IN [99999999999999999999]"):
            code = main(
                ["train-table", "--data-dir", str(retail_dir), "--out-dir", str(tmp_path / "e"),
                 "--query",
                 f"PREDICT SUM(TRANSACTIONS.VALUE, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID WHERE {where}"]
            )
            assert code == 2, where
            err = capsys.readouterr().err
            assert "empty result" in err and "Traceback" not in err, where

    def test_list_targets_json_encoded(self, retail_dir, tmp_path):
        out = tmp_path / "link"
        code = main(
            ["train-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
             "--query", CORPUS_BY_NAME["blue_articles"].text,
             "--anchors", "1", "--latest", "2024-01-01", "--keep-empty-labels"]
        )
        assert code == 0
        lines = (out / "training.csv").read_text().splitlines()
        assert lines[1] == "1,2024-01-01T00:00:00Z,[],test"
        assert lines[2] == "2,2024-01-01T00:00:00Z,[3],test"

    def test_list_of_timestamps_target(self, retail_dir, tmp_path):
        out = tmp_path / "times"
        code = main(
            ["train-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
             "--query", "PREDICT LIST_DISTINCT(TRANSACTIONS.TIMESTAMP, 0, 30, days) "
             "FOR EACH CUSTOMERS.CUSTOMER_ID",
             "--anchors", "2", "--stride", "10d", "--latest", "2024-01-01", "--keep-empty-labels"]
        )
        assert code == 0
        one = '"[""2024-01-05T00:00:00Z"", ""2024-01-10T00:00:00Z""]"'
        two = '"[""2024-01-03T00:00:00Z"", ""2024-01-07T00:00:00Z"", ""2024-01-20T00:00:00Z""]"'
        assert (out / "training.csv").read_text().splitlines()[1:] == [
            f"1,2024-01-01T00:00:00Z,{one},test",
            f"2,2024-01-01T00:00:00Z,{two},test",
            "3,2024-01-01T00:00:00Z,[],test",
            f"1,2023-12-22T00:00:00Z,{one},val",
            f"2,2023-12-22T00:00:00Z,{two},val",
            "3,2023-12-22T00:00:00Z,[],val",
        ]

    @pytest.mark.parametrize("name", ["impute_value", "ny_monthly_spend", "next_month_spend"])
    def test_printed_split_counts_follow_the_rows(self, name, retail_dir, tmp_path, capsys):
        out = tmp_path / "splits"
        code = main(
            ["train-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
             "--query", CORPUS_BY_NAME[name].text, "--anchors", "4", "--stride", "7d",
             "--split", "0.4,0.3,0.3", "--seed", "3"]
        )
        assert code == 0
        printed = re.search(r"splits=(\{.*?\})", capsys.readouterr().out).group(1)
        with open(out / "training.csv", newline="") as fh:
            labels = [row[-1] for row in list(csv.reader(fh))[1:]]
        # Keyed in the order the labels first appear in the file.
        assert printed == str(dict(Counter(labels)))
        assert len(set(labels)) > 1

    def test_missing_data_dir_is_io_error(self, retail_dir, tmp_path):
        code = main(
            ["train-table", "--data-dir", str(tmp_path / "nope"), *schema_arg(retail_dir),
             "--out-dir", str(tmp_path / "x"),
             "--query", CORPUS_BY_NAME["impute_value"].text]
        )
        assert code == 3

    def test_config_file_with_flag_precedence(self, retail_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data_dir": str(retail_dir),
            "query": CORPUS_BY_NAME["ny_monthly_spend"].text,
            "out_dir": str(tmp_path / "from_config"),
            "anchors": 1,
            "latest": "2023-06-01",
        }))
        code = main(["train-table", "--config", str(cfg), "--latest", "2024-01-01"])
        assert code == 0
        meta = json.loads((tmp_path / "from_config" / "training.meta.json").read_text())
        assert meta["anchors"] == ["2024-01-01T00:00:00Z"]  # flag wins over config


# Malformed option values: (command, flags, the option the error names);
# a "config" flag value is written to a config file first.
BAD_OPTIONS = {
    "split_words": ("train-table", ["--split", "a,b,c"], "--split"),
    "split_sum": ("train-table", ["--split", "1,1,1"], "split ratios must sum to 1"),
    "split_count": ("train-table", ["--split", "0.5,0.5"], "--split"),
    "split_nan": ("train-table", ["--split", "nan,0,0"], "split ratios must sum to 1, got nan"),
    "split_inf": ("train-table", ["--split", "inf,0,0"], "split ratios must sum to 1, got inf"),
    "stride": ("train-table", ["--stride", "5x"], "--stride"),
    "latest": ("train-table", ["--latest", "notadate"], "--latest"),
    "predict_at": ("predict-table", ["--at", "yesterday"], "--at"),
    "sample_at": ("sample", ["--at", "yesterday"], "--at"),
    "plan_at": ("plan", ["--mode", "prediction", "--at", "yesterday"], "--at"),
    "config_anchors": ("train-table", ["--config", {"anchors": "ten"}], "'anchors'"),
    "config_split": ("train-table", ["--config", {"split": 0.8}], "'split'"),
    "pairs_negative": ("sample", ["--pairs", "-5"], "--pairs"),
    "pairs_zero": ("sample", ["--pairs", "0"], "--pairs"),
    "bench_pairs": ("bench", ["--pairs", "-1", "--paths", "sampler"], "--pairs"),
    "bench_runs_zero": ("bench", ["--runs", "0", "--paths", "sampler"], "--runs"),
    "bench_runs_negative": ("bench", ["--runs", "-1", "--paths", "sampler"], "--runs"),
    "config_anchors_bool": ("train-table", ["--config", {"anchors": True}], "'anchors'"),
    "config_strategy_choice": ("train-table", ["--config", {"strategy": "fast"}], "'strategy'"),
    "flag_anchors": ("train-table", ["--anchors", "ten"], "argument --anchors: invalid int value: 'ten'"),
    "flag_strategy_choice": ("train-table", ["--strategy", "fast"], "argument --strategy: invalid choice: 'fast'"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_malformed_option_is_a_typed_error(case, retail_dir, tmp_path, capsys):
    command, flags, option = BAD_OPTIONS[case]
    if isinstance(flags[-1], dict):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(flags[-1]))
        flags = flags[:-1] + [str(config)]
    args = [command, *flags, "--query", CORPUS_BY_NAME["ny_monthly_spend"].text]
    if command == "plan":
        args += schema_arg(retail_dir)
    else:
        args += ["--data-dir", str(retail_dir)]
        if command != "bench":  # bench writes no output directory
            args += ["--out-dir", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [["--scale", "nan"], ["--scale", "inf"], ["--scale", "-1"], ["--scale", "0"],
     ["--upscale", "-3"], ["--upscale", "0"]],
    ids=" ".join,
)
def test_gen_data_bad_size_is_a_typed_error(flags, tmp_path, capsys):
    assert main(["gen-data", "--out-dir", str(tmp_path / "out"), *flags]) == 1
    err = capsys.readouterr().err
    assert f"{flags[0]} must be" in err, err
    assert not (tmp_path / "out").exists()


# A value for every long option of every command, unlike its default.
OPTION_VALUES = {
    "schema": "s.json", "query": "PREDICT T.C FOR EACH T.K", "query_file": "q.pql",
    "data_dir": "data", "out_dir": "elsewhere", "lenient_fk": True, "workers": 3, "seed": 7,
    "anchors": 12, "stride": "30d", "latest": "2024-01-01", "at": "2024-02-01",
    "split": "0.6,0.2,0.2", "keep_empty_labels": True, "strategy": "naive", "mode": "prediction",
    "json": True, "pairs": 9, "runs": 2, "paths": "oracle", "out": "report.json", "scale": 0.25,
    "genspec": "spec.json", "validity": True, "upscale": 3,
}
CONFIG_KEYS = [
    (command, key)
    for command, parser in build_parser().commands.items()
    for key in parser.options
    if key not in ("help", "config")
]


@pytest.mark.parametrize("command,key", CONFIG_KEYS, ids=lambda v: v)
def test_config_key_parses_as_its_long_option(command, key, tmp_path):
    action = build_parser().commands[command].options[key]
    value = OPTION_VALUES[key]
    flag = action.option_strings[-1:] if action.nargs == 0 else [action.option_strings[-1], str(value)]
    from_flag = parse_args([command, *flag])
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    from_config = parse_args([command, "--config", str(config)])
    assert vars(from_config) == {**vars(from_flag), "config": str(config)}
    assert getattr(from_flag, key) != getattr(parse_args([command]), key)


# Flags a command does not read: argparse refuses them rather than letting
# them be ignored. `--workers` stays accepted and unread on every data
# command: callers pass it to each alike.
DROPPED_FLAGS = [
    ("gen-data", ["--schema", "s.json"]),
    ("gen-data", ["--query", "q"]),
    ("gen-data", ["--query-file", "q.pql"]),
    ("gen-data", ["--data-dir", "d"]),
    ("gen-data", ["--lenient-fk"]),
    ("gen-data", ["--workers", "1"]),
    ("plan", ["--split", "0.8,0.1,0.1"]),
    ("plan", ["--keep-empty-labels"]),
    ("plan", ["--seed", "1"]),
    ("bench", ["--stride", "30d"]),
    ("bench", ["--latest", "2024-01-01"]),
    ("bench", ["--split", "0.8,0.1,0.1"]),
    ("bench", ["--keep-empty-labels"]),
    ("bench", ["--out-dir", "o"]),
    ("validate", ["--seed", "1"]),
    ("infer", ["--seed", "1"]),
    ("predict-table", ["--seed", "1"]),
]


@pytest.mark.parametrize("command,flag", DROPPED_FLAGS, ids=[f"{c}{f[0]}" for c, f in DROPPED_FLAGS])
def test_unread_flag_is_refused(command, flag):
    with pytest.raises(PqlError, match=f"^unrecognized arguments: {flag[0]}"):
        build_parser().parse_args([command, *flag])


@pytest.mark.parametrize("command", ["train-table", "predict-table", "sample", "bench"])
def test_workers_is_accepted_and_must_be_an_integer(command):
    assert build_parser().parse_args([command, "--workers", "-3"]).workers == -3
    with pytest.raises(PqlError, match="^argument --workers: invalid int value: 'two'$"):
        build_parser().parse_args([command, "--workers", "two"])


@pytest.mark.parametrize("argv", [["--help"], ["train-table", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


# A JSON file of each kind pql reads, and the error a malformed one gets:
# (the command line before the file, exit code, text on stderr).
QUERY = ["--query", "PREDICT CUSTOMERS.AGE FOR EACH CUSTOMERS.CUSTOMER_ID"]
JSON_FILES = {
    "config": (["train-table", "--out-dir", "unused", *QUERY, "--config"], 3, "i/o error: bad JSON: "),
    "genspec": (["gen-data", "--out-dir", "unused", "--genspec"], 3, "i/o error: bad JSON: "),
    "schema": (["validate", *QUERY, "--schema"], 1, "schema document is not valid JSON: "),
}


@pytest.mark.parametrize("kind", sorted(JSON_FILES))
def test_oversized_json_integer_is_bad_json(kind, tmp_path, capsys):
    args, code, text = JSON_FILES[kind]
    # int() refuses more than 4,300 digits; such a file fails as one that
    # does not parse does, never with a traceback.
    for name, doc in (("malformed", '{"anchors": 1,}'), ("oversized", '{"anchors": ' + "1" * 5000 + "}")):
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        assert main([*args, str(path)]) == code, name
        err = capsys.readouterr().err
        assert text in err and "Traceback" not in err, err
    assert "integer of more than 4300 digits: line 1 column 13 (char 12)" in err


def one_table(**table) -> dict:
    """A schema document of one table T whose key column is ID."""
    return {"tables": [{"name": "T", "columns": [{"name": "ID", "dtype": "int64", "stype": "key"}], **table}]}


# Schema documents that parse as JSON but hold no schema, and the start of
# the error each gets: the table and the field at fault.
BAD_SCHEMAS = {
    "tables_not_a_list": ({"tables": {"name": "T"}}, "schema document must be an object with a 'tables' list"),
    "table_not_an_object": ({"tables": ["T"]}, "schema document: tables[0] must be an object"),
    "columns_not_a_list": (one_table(columns={"name": "ID"}), "table T: 'columns' must be a list"),
    "column_not_an_object": (one_table(columns=["ID"]), "table T: columns[0] must be an object"),
    "table_name": ({"tables": [{"name": 7}]}, "tables[0]: 'name' must be a string"),
    "column_name": (one_table(columns=[{"name": 1, "dtype": "int64", "stype": "key"}]),
                    "table T: column entry: 'name' must be a string"),
    "dtype": (one_table(columns=[{"name": "ID", "dtype": 64, "stype": "key"}]),
              "table T: column ID: 'dtype' must be a string"),
    "primary_key": (one_table(primary_key=["ID"]), "table T: 'primary_key' must be a string"),
    "foreign_keys_not_a_list": (one_table(foreign_keys={"column": "ID"}), "table T: 'foreign_keys' must be a list"),
    "foreign_key_without_references": (one_table(foreign_keys=[{"column": "ID"}]),
                                       "table T: foreign key ID missing 'references'"),
    "validity_not_an_object": (one_table(validity="ID"), "table T: 'validity' must be an object"),
    "nullable_as_text": (one_table(columns=[{"name": "ID", "dtype": "int64", "stype": "key", "nullable": "false"}]),
                         "table T: column ID: 'nullable' must be true or false"),
}


@pytest.mark.parametrize("doc,fault", BAD_SCHEMAS.values(), ids=list(BAD_SCHEMAS))
def test_schema_document_that_holds_no_schema_is_a_schema_error(doc, fault, tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", *QUERY, "--schema", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [schema] {fault}") and "Traceback" not in err, err


# Genspec documents that parse as JSON but hold no spec, and the start of
# the error each gets.
BAD_GENSPECS = {
    "not_an_object": ([1300], "a genspec must be a JSON object"),
    "unknown_key": ({"customer": 10}, "unknown genspec key 'customer'"),
    "count_as_text": ({"customers": "10"}, "genspec key 'customers' must be a whole number of at least 0"),
    "fractional_count": ({"transactions": 10.5}, "genspec key 'transactions' must be a whole number of at least 0"),
    "span_start": ({"span_start": "2022-13-01"}, "genspec key 'span_start' must be an ISO-8601 date"),
    "null_rates": ({"null_rates": [0.1]}, "genspec key 'null_rates' must be an object of finite numbers"),
    "zipf_a": ({"zipf_a": "1.1"}, "genspec key 'zipf_a' must be a finite number"),
    "upscale_zero": ({"upscale": 0}, "genspec key 'upscale' must be a whole number of at least 1"),
}


@pytest.mark.parametrize("doc,fault", BAD_GENSPECS.values(), ids=list(BAD_GENSPECS))
def test_genspec_that_holds_no_spec_is_a_data_error(doc, fault, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["gen-data", "--out-dir", str(tmp_path / "unused"), "--genspec", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [data] {fault}") and "Traceback" not in err, err
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("command", ["train-table", "predict-table", "sample"])
def test_temporal_query_over_no_dated_rows_is_a_plan_error(command, retail_dir, tmp_path, capsys):
    # Only TRANSACTIONS and NOTIFICATIONS have time columns; empty them.
    data = tmp_path / "data"
    shutil.copytree(retail_dir, data)
    for name, text in (("transactions", TRANSACTIONS_CSV), ("notifications", NOTIFICATIONS_CSV)):
        (data / f"{name}.csv").write_text(text.splitlines(keepends=True)[0])
    args = [command, "--data-dir", str(data), "--out-dir", str(tmp_path / "out"),
            "--query", "PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID"]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: [plan] temporal query over a database with no dated rows\n"


# Each file pql reads as text, and the error one that is not UTF-8 gets:
# (the command line before the file, exit code, text on stderr before its path).
NOT_UTF8_FILES = {
    "query": (["validate", "--query-file"], 3, "i/o error: "),
    "config": (JSON_FILES["config"][0], 3, "i/o error: "),
    "genspec": (JSON_FILES["genspec"][0], 3, "i/o error: "),
    "schema": (JSON_FILES["schema"][0], 1, "error: [schema] schema document "),
}


@pytest.mark.parametrize("kind", sorted(NOT_UTF8_FILES))
def test_file_that_is_not_utf8_is_a_typed_error(kind, tmp_path, capsys):
    args, code, text = NOT_UTF8_FILES[kind]
    path = tmp_path / "latin1.txt"
    path.write_bytes(b'{"anchors": "caf\xe9"}')
    assert main([*args, str(path)]) == code
    assert capsys.readouterr().err == f"{text}{path} is not UTF-8: invalid continuation byte at byte 16\n"
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize(
    "command", [["plan", "--mode", "prediction"], ["predict-table"], ["sample"]], ids=lambda c: c[0]
)
def test_anchor_on_a_static_query_is_refused(command, retail_dir, tmp_path, capsys):
    args = [*command, "--query", CORPUS_BY_NAME["impute_value"].text, "--at", "2024-01-01"]
    if command[0] == "plan":
        args += schema_arg(retail_dir)
    else:
        args += ["--data-dir", str(retail_dir), "--out-dir", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: [plan] static query takes no anchor\n"
    assert not (tmp_path / "out").exists()


def test_lenient_fk_reports_kept_keys_on_stderr(retail_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(retail_dir, data)
    args = ["train-table", "--data-dir", str(data), "--out-dir", str(tmp_path / "out"),
            "--query", CORPUS_BY_NAME["ny_monthly_spend"].text, "--anchors", "1", "--latest", "2024-01-01"]
    assert main(args) == 0
    clean = capsys.readouterr()
    with open(data / "transactions.csv", "a", encoding="utf-8") as fh:
        fh.write("9,5.0,2024-01-02,987654,1\n")
    assert main(args) == 1
    assert "987654" in capsys.readouterr().err
    assert main(args + ["--lenient-fk"]) == 0
    lenient = capsys.readouterr()
    assert lenient.out == clean.out
    assert lenient.err == "--lenient-fk: kept 1 dangling foreign key in TRANSACTIONS: CUSTOMER_ID=987654\n"


def test_text_files_are_utf8_whatever_the_locale(retail_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(retail_dir, data)
    (data / "articles.csv").write_text(ARTICLES_CSV.replace("Blue Shirt", "Café"), encoding="utf-8")
    src = str(Path(pql.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "pql.cli", "train-table", "--data-dir", str(data),
            "--query", CORPUS_BY_NAME["ny_monthly_spend"].text, "--anchors", "1", "--latest", "2024-01-01"]

    def run(out):
        done = subprocess.run(args + ["--out-dir", str(out)], env=env, capture_output=True, timeout=120)
        return done.returncode, done.stderr.decode("utf-8", "replace")

    assert run(tmp_path / "c") == (0, "")
    assert main(args[3:] + ["--out-dir", str(tmp_path / "utf8")]) == 0
    for name in ("training.csv", "training.meta.json"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()
    with open(data / "articles.csv", "ab") as fh:
        fh.write(b"4,Caf\xe9,shirt,latin-1 text,red\n")
    code, err = run(tmp_path / "bad")
    assert (code, err) == (1, "error: [data] table ARTICLES: row 4: text is not UTF-8\n")


def test_demo_script_runs_every_command(tmp_path):
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "demo_retail.py"), "--scale", "0.0005", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "$ pql plan " in done.stdout and (tmp_path / "sample" / "sample.csv").exists()


def test_benchmark_script_runs_and_the_sampler_agrees(tmp_path):
    root = Path(__file__).resolve().parent.parent
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_benchmarks.py"), "--large", "0.001", "--small", "0.0005",
         "--runs", "1", "--pairs", "20", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    sampler = json.loads(out.read_text())["large"]["sampler"]["paths"]["sampler"]
    # A note would say the restricted batch disagrees with evaluate_pairs.
    assert sampler["note"] is None and sampler["rows_out"] > 0


class TestPredictTable:
    def test_latest_default_and_at_override(self, retail_dir, tmp_path, capsys):
        out = tmp_path / "p"
        q = CORPUS_BY_NAME["active_spender"].text
        assert main(["predict-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
                     "--query", q]) == 0
        rows = (out / "prediction.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "2024-02-10T00:00:00Z"  # latest event time
        assert main(["predict-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
                     "--query", q, "--at", "2023-12-25"]) == 0
        rows = (out / "prediction.csv").read_text().splitlines()
        assert rows[1] == "3,2023-12-25T00:00:00Z"

    def test_link_task_emits_candidates(self, retail_dir, tmp_path):
        out = tmp_path / "cand"
        code = main(["predict-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
                     "--query", CORPUS_BY_NAME["blue_articles"].text])
        assert code == 0
        assert (out / "candidates.csv").read_text().splitlines() == ["CANDIDATE", "1", "3"]


class TestSampleAndGenData:
    def test_gen_data_then_sample(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data), "--scale", "0.0003", "--seed", "5"]) == 0
        out = tmp_path / "s"
        code = main(
            ["sample", "--data-dir", str(data), "--out-dir", str(out), "--pairs", "10",
             "--query", "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"]
        )
        assert code == 0
        assert "rows_touched" in capsys.readouterr().out
        assert (out / "sample.csv").exists()

    def test_sample_at_off_the_anchor_grid_is_a_typed_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data), "--scale", "0.0003", "--seed", "5"]) == 0
        capsys.readouterr()
        args = ["sample", "--data-dir", str(data), "--out-dir", str(tmp_path / "s"), "--pairs", "5",
                "--query", "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"]
        assert main(args + ["--at", "2023-06-03"]) == 1
        err = capsys.readouterr().err
        assert "--at 2023-06-03T00:00:00Z is not on the anchor grid (10 anchors, newest " in err
        assert "Traceback" not in err and "KeyError" not in err
        assert not (tmp_path / "s").exists()
        # Moving the grid onto the anchor makes it a valid request.
        assert main(args + ["--at", "2023-06-03", "--latest", "2023-06-03"]) == 0
        assert (tmp_path / "s" / "sample.csv").exists()

    def test_sample_anchors_on_the_grid_it_resolves(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data), "--scale", "0.0003", "--seed", "5"]) == 0
        capsys.readouterr()
        args = ["sample", "--data-dir", str(data), "--pairs", "5",
                "--query", "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"]
        assert main(args + ["--out-dir", str(tmp_path / "s"), "--latest", "2023-06-01"]) == 0
        meta = json.loads((tmp_path / "s" / "sample.meta.json").read_text())
        assert meta["row_count"] == 5
        rows = (tmp_path / "s" / "sample.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"2023-06-01T00:00:00Z"}
        capsys.readouterr()
        # A grid before the data holds no anchor: no row can be labelled.
        assert main(args + ["--out-dir", str(tmp_path / "e"), "--latest", "1990-01-01"]) == 2
        assert capsys.readouterr().err == (
            "error: no feasible anchors: the data span is shorter than one anchor stride\n"
        )
        assert not (tmp_path / "e").exists()

    def test_gen_data_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--out-dir", str(out), "--scale", "0.0002", "--seed", "3"]) == 0
        for path in sorted(a.iterdir()):
            assert path.read_bytes() == (b / path.name).read_bytes()


    def test_crlf_and_quoted_data_train_alike(self, tmp_path):
        """A generated database rewritten with CRLF record ends and quoted
        headers, and with every cell of TRANSACTIONS quoted, trains to the
        same bytes as the original."""
        data, crlf = tmp_path / "data", tmp_path / "crlf"
        assert main(["gen-data", "--out-dir", str(data), "--scale", "0.0005", "--seed", "11"]) == 0
        crlf.mkdir()
        (crlf / "schema.json").write_bytes((data / "schema.json").read_bytes())
        for path in data.glob("*.csv"):
            header, body = path.read_bytes().split(b"\n", 1)
            assert b'"' not in body and b"\r" not in body
            if path.name == "transactions.csv":
                body = b"".join(b'"' + line.replace(b",", b'","') + b'"\n' for line in body.splitlines())
            quoted = b",".join(b'"' + name + b'"' for name in header.split(b","))
            (crlf / path.name).write_bytes((quoted + b"\n" + body).replace(b"\n", b"\r\n"))
        query = "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) > 0 FOR EACH CUSTOMERS.CUSTOMER_ID"
        for source in (data, crlf):
            assert main(["train-table", "--data-dir", str(source), "--out-dir", str(tmp_path / f"{source.name}-out"),
                         "--query", query, "--workers", "1"]) == 0
        for name in ("training.csv", "training.meta.json"):
            assert (tmp_path / "crlf-out" / name).read_bytes() == (tmp_path / "data-out" / name).read_bytes()

    @pytest.mark.parametrize("validity", [[], ["--validity"]], ids=["plain", "validity"])
    def test_generated_data_survives_load_and_save(self, tmp_path, validity):
        data, again = tmp_path / "data", tmp_path / "again"
        assert main(["gen-data", "--out-dir", str(data), "--scale", "0.001", "--seed", "2"] + validity) == 0
        save_database(load_database(data / "schema.json", data), again)
        written = sorted(p.name for p in data.iterdir() if p.name != "genspec.json")
        assert written == sorted(p.name for p in again.iterdir())
        for name in written:
            assert (again / name).read_bytes() == (data / name).read_bytes(), name


class TestBenchCommand:
    def test_bench_tiny_with_oracle(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--scale", "0.0002", "--runs", "2", "--pairs", "5",
             "--paths", "optimized,unoptimized,oracle,sampler", "--out", str(out),
             "--query",
             "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "WHERE CUSTOMERS.AGE > 40"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "optimized" in text and "oracle" in text
        doc = json.loads(out.read_text())
        assert set(doc["paths"]) >= {"optimized", "unoptimized", "oracle", "sampler"}
        assert doc["paths"]["optimized"]["rows_out"] == doc["paths"]["unoptimized"]["rows_out"]

    def test_naive_strategy_flag_matches_optimized_rows(self, retail_dir, tmp_path):
        outs = {}
        for strategy in ("optimized", "naive"):
            out = tmp_path / strategy
            code = main(
                ["train-table", "--data-dir", str(retail_dir), "--out-dir", str(out),
                 "--strategy", strategy, "--anchors", "2", "--latest", "2024-01-01",
                 "--query", CORPUS_BY_NAME["ny_monthly_spend"].text]
            )
            assert code == 0
            outs[strategy] = (out / "training.csv").read_text()
        assert outs["optimized"] == outs["naive"]

    def test_bench_on_csv_data_dir(self, retail_dir, tmp_path, capsys):
        code = main(
            ["bench", "--data-dir", str(retail_dir), "--runs", "1", "--anchors", "2",
             "--paths", "optimized,oracle",
             "--query", CORPUS_BY_NAME["ny_monthly_spend"].text]
        )
        assert code == 0
        assert "oracle" in capsys.readouterr().out

    def test_oracle_guard_on_larger_data(self, capsys):
        code = main(
            ["bench", "--scale", "0.001", "--runs", "1", "--paths", "oracle",
             "--query", "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"]
        )
        assert code == 0
        assert "skipped" in capsys.readouterr().out


# Each cell is a time in years 0001-9999 at its offset, and outside them in UTC.
OUTSIDE_THE_YEARS = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]


class TestTimestampsOutsideTheWrittenYears:
    """A time the CSV writer could not write is refused where it is read:
    a load as a `DataError` naming its record, `--at` and `--latest` naming
    the option, a query literal as a bind error."""

    QUERY = "PREDICT COUNT(TRANSACTIONS.*, 0, 7, days) FOR EACH CUSTOMERS.CUSTOMER_ID"

    def run(self, retail_dir, tmp_path, capsys, *args, query=QUERY):
        code = main([*args, *schema_arg(retail_dir), "--out-dir", str(tmp_path / "out"), "--query", query])
        err = capsys.readouterr().err
        assert "Traceback" not in err and not (tmp_path / "out").exists()
        return code, err

    @pytest.mark.parametrize("cell", OUTSIDE_THE_YEARS)
    def test_a_load(self, cell, retail_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(retail_dir, data)
        (data / "transactions.csv").write_text(TRANSACTIONS_CSV + f"9,1.0,{cell},1,1\n")
        code, err = self.run(retail_dir, tmp_path, capsys, "train-table", "--data-dir", str(data))
        assert code == 1 and "TRANSACTIONS" in err and "row 9" in err and "outside years 0001-9999" in err, err

    @pytest.mark.parametrize("cell", OUTSIDE_THE_YEARS)
    @pytest.mark.parametrize("command, option", [("predict-table", "--at"), ("sample", "--at"),
                                                 ("train-table", "--latest"), ("sample", "--latest")])
    def test_an_option(self, command, option, cell, retail_dir, tmp_path, capsys):
        code, err = self.run(retail_dir, tmp_path, capsys, command, "--data-dir", str(retail_dir), option, cell)
        assert code == 1 and f"{option}: " in err and "outside years 0001-9999" in err, err

    @pytest.mark.parametrize("cell", OUTSIDE_THE_YEARS)
    def test_a_query_literal(self, cell, retail_dir, tmp_path, capsys):
        query = f"{self.QUERY} WHERE CUSTOMERS.SIGNUP_DATE > '{cell}'"
        code, err = self.run(retail_dir, tmp_path, capsys, "train-table", "--data-dir", str(retail_dir),
                             query=query)
        assert code == 1 and "in years 0001-9999" in err and cell in err, err


@pytest.mark.parametrize("command", ["train-table", "predict-table", "sample"])
def test_a_lookback_past_int64_runs_everywhere(command, retail_dir, tmp_path, capsys):
    query = ("PREDICT COUNT(TRANSACTIONS.*, 0, 30, days) FOR EACH CUSTOMERS.CUSTOMER_ID "
             "WHERE COUNT(TRANSACTIONS.*, -100000000000, 0, days) > 0")
    code = main([command, "--data-dir", str(retail_dir), "--out-dir", str(tmp_path / "out"), "--query", query])
    err = capsys.readouterr().err
    assert (code, err) == (0, "")
