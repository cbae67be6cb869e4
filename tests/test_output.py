"""Result files: every CSV pql writes reads back cell for cell, and result
cells are spelled as `save_table_csv` spells table cells."""

import csv
import json

import pytest

from pql.cli import main
from pql.store import load_database, save_database

# Cells a CSV reader splits wrongly unless they are quoted: delimiters,
# quotes, every line break the csv module or `str.splitlines` knows, and
# non-ASCII text.
HARD = ["a,b", 'q"uote', "new\nline", "cr\r\nlf", "k\rey", "ls\u2028x", "nel\u0085x", "\u00fc\u4e2d"]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_dir(root, tables):
    """A data directory from {name: (columns, rows, extras)}; `columns` maps
    a column name to (dtype, stype) and `extras` holds the schema's other
    table keys."""
    root.mkdir()
    schema = {"tables": []}
    for name, (columns, rows, extras) in tables.items():
        cols = [{"name": c, "dtype": d, "stype": s} for c, (d, s) in columns.items()]
        schema["tables"].append({"name": name, "columns": cols, **extras})
        write_csv(root / f"{name.lower()}.csv", list(columns), rows)
    (root / "schema.json").write_text(json.dumps(schema))
    return root


def run(*args):
    assert main(list(args)) == 0


class TestQuoting:
    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        # Every key is hard, and so is every label; the "m" keys have none.
        labelled = {f"k{i}{cell}": cell for i, cell in enumerate(HARD)}
        missing = [f"m{i}{cell}" for i, cell in enumerate(HARD)]
        items = [f"item{cell}" for cell in HARD]
        events = [[str(i), key, items[i % len(items)]] for i, key in enumerate(labelled)]
        root = make_dir(tmp_path_factory.mktemp("quoting") / "data", {
            "C": ({"ID": ("string", "key"), "S": ("string", "categorical")},
                  [[k, v] for k, v in labelled.items()] + [[k, ""] for k in missing],
                  {"primary_key": "ID"}),
            "ITEMS": ({"ITEM_ID": ("string", "key")}, [[i] for i in items], {"primary_key": "ITEM_ID"}),
            "EVENTS": ({"EVENT_ID": ("int64", "key"), "C_ID": ("string", "key"),
                        "ITEM_ID": ("string", "key")}, events,
                       {"primary_key": "EVENT_ID", "foreign_keys": [
                           {"column": "C_ID", "references": "C"},
                           {"column": "ITEM_ID", "references": "ITEMS"}]}),
        })
        return root, labelled, missing, items

    def test_labels_read_back(self, data, tmp_path):
        root, labelled, _, _ = data
        query = "PREDICT C.S FOR EACH C.ID"
        run("train-table", "--data-dir", str(root), "--out-dir", str(tmp_path), "--query", query)
        run("sample", "--data-dir", str(root), "--out-dir", str(tmp_path), "--query", query,
            "--pairs", "100")
        for name in ("training.csv", "sample.csv"):
            header, *rows = read_csv(tmp_path / name)
            assert header == ["ENTITY", "TARGET", "SPLIT"]
            assert {key: label for key, label, _ in rows} == labelled, name
            assert [key for key, _, _ in rows] == sorted(labelled), name

    def test_prediction_entities_read_back(self, data, tmp_path):
        root, _, missing, _ = data
        run("predict-table", "--data-dir", str(root), "--out-dir", str(tmp_path),
            "--query", "PREDICT C.S FOR EACH C.ID")
        assert read_csv(tmp_path / "prediction.csv") == [["ENTITY"]] + [[k] for k in sorted(missing)]

    def test_link_keys_read_back(self, data, tmp_path):
        root, labelled, missing, items = data
        query = "PREDICT LIST_DISTINCT(EVENTS.ITEM_ID) RANK TOP 3 FOR EACH C.ID"
        run("predict-table", "--data-dir", str(root), "--out-dir", str(tmp_path), "--query", query)
        assert read_csv(tmp_path / "candidates.csv") == [["CANDIDATE"]] + [[i] for i in sorted(items)]
        assert read_csv(tmp_path / "prediction.csv") == [["ENTITY"]] + [[k] for k in sorted(missing)]
        run("train-table", "--data-dir", str(root), "--out-dir", str(tmp_path), "--query", query)
        rows = read_csv(tmp_path / "training.csv")[1:]
        expected = {key: [items[i % len(items)]] for i, key in enumerate(labelled)}
        assert {key: json.loads(target) for key, target, _ in rows} == expected


class TestBothWritersAgree:
    """A static plain-column target's TARGET cells are the cells
    `save_table_csv` writes for that column; a MAX over a timestamp column's
    single child is that child's cell."""

    COLUMNS = {
        "I": ("int64", "numerical", ["9223372036854775807", "-9223372036854775807", "0", "-1"]),
        "F": ("float64", "numerical", ["0.1", "1e-300", "1e300", "5e-324", "-0.0", "inf", "-inf"]),
        "B": ("bool", "categorical", ["true", "false", "t", "0"]),
        "S": ("string", "categorical", ['say "hi"', "a,b", '",', "plain"]),
    }
    TIMES = ["0005-06-07T08:09:10Z", "2022-03-04T05:06:07.123456Z", "1969-12-31T23:59:59.999999Z",
             "9999-12-31T23:59:59Z"]

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        n = max(len(cells) for _, _, cells in self.COLUMNS.values())
        rows = [[str(i)] + [(cells[i] if i < len(cells) else "") for _, _, cells in self.COLUMNS.values()]
                for i in range(n)]
        root = make_dir(tmp_path_factory.mktemp("agree") / "data", {
            "E": ({"ID": ("int64", "key"), **{c: (d, s) for c, (d, s, _) in self.COLUMNS.items()}},
                  rows, {"primary_key": "ID"}),
            "EV": ({"EV_ID": ("int64", "key"), "E_ID": ("int64", "key"), "T": ("timestamp", "temporal")},
                   [[str(i), str(i), t] for i, t in enumerate(self.TIMES)],
                   {"primary_key": "EV_ID", "foreign_keys": [{"column": "E_ID", "references": "E"}]}),
        })
        again = root.parent / "saved"
        save_database(load_database(root / "schema.json", root), again)
        return root, {name: read_csv(again / f"{name}.csv") for name in ("e", "ev")}

    def targets(self, root, out, target):
        run("train-table", "--data-dir", str(root), "--out-dir", str(out),
            "--query", f"PREDICT {target} FOR EACH E.ID")
        return {key: cell for key, cell, _ in read_csv(out / "training.csv")[1:]}

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_plain_column_targets(self, saved, tmp_path, column):
        root, files = saved
        header, *rows = files["e"]
        j = header.index(column)
        expected = {row[0]: row[j] for row in rows if row[j] != ""}
        assert self.targets(root, tmp_path, f"E.{column}") == expected

    def test_timestamp_target(self, saved, tmp_path):
        root, files = saved
        header, *rows = files["ev"]
        expected = {row[header.index("E_ID")]: row[header.index("T")] for row in rows}
        assert self.targets(root, tmp_path, "MAX(EV.T)") == expected
        assert sorted(expected.values())[0] == "0005-06-07T08:09:10Z"
