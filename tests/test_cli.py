import argparse
import contextlib
import csv
import gzip
import hashlib
import io
import json
import math
import operator
import re
import runpy
import shutil
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qexp.cli
import qexp.evaluation
import qexp.expansion
import qexp.exposure
import qexp.predictors
import qexp.text
from qexp.cli import load_queries_tsv, main
from qexp.corpus import (
    INDEX_FORMAT_VERSION, INDEX_MAGIC, CollectionIndex, CorpusError, build_index,
    load_categories_json, load_corpus_jsonl,
)
from qexp.exposure import position_exposure
from qexp.predictors import PREDICTORS
from qexp.retrieval import Query, read_run_file
from qexp.synthetic import make_planted_skew_corpus

from oracles import compensated_sum

DEEP_JSON = "[" * 100_000  # json.loads raises RecursionError on it
LONG_INT = "1" * 5_000  # past Python's int string limit: json.loads raises ValueError on it


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def make_workspace(tmp_path: Path) -> Path:
    """A 10-doc corpus, its categories, 3 queries and the index, in ``tmp_path``."""
    corpus = tmp_path / "corpus.jsonl"
    lines = []
    # group A owns t000/t001, group B owns t004/t005; t003 is shared
    rows = [
        ("d00", "t000 t001 t000", "A"),
        ("d01", "t000 t003", "A"),
        ("d02", "t001 t001", "A"),
        ("d03", "t001 t003 t000", "A"),
        ("d04", "t000", "A"),
        ("d05", "t004 t005", "B"),
        ("d06", "t005 t003", "B"),
        ("d07", "t004 t004", "B"),
        ("d08", "t005 t003 t004", "B"),
        ("d09", "t005", "B"),
    ]
    for doc_id, text, group in rows:
        lines.append(json.dumps({"doc_id": doc_id, "text": text, "labels": {"c": group}}))
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    categories = tmp_path / "categories.json"
    categories.write_text('[{"name": "c", "groups": ["A", "B"]}]', encoding="utf-8")

    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tt000 t001\nq2\tt004 t005\nq3\tt000 t005\n", encoding="utf-8")
    build_index(load_corpus_jsonl(corpus), load_categories_json(categories)).save(
        tmp_path / "index.qx"
    )
    return tmp_path


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-exposure", "--mode", "bogus"],
            ["predict", "--queries", "q.tsv", "--out", "p.jsonl", "--k", "abc"],
            ["run", "--index", "index.qx"],  # --queries is required
            ["rank", "--queries", "q.tsv", "--out", "r.trec", "--no-such-flag"],
            ["no-such-command"],
            # nothing in a run is random, so it takes no seed
            ["run", "--index", "index.qx", "--queries", "q.tsv", "--seed", "7"],
            # DCG is the only exposure model, and --m the only way to name m
            ["run", "--index", "index.qx", "--queries", "q.tsv", "--exposure-formula", "dcg"],
            ["analyze-exposure", "--exposure-formula", "dcg"],
            ["analyze-exposure", "--m-range", "0:5"],
            # GEP's idf is the floored Robertson idf, with no switch
            *[
                [command, "--index", "index.qx", "--queries", "q.tsv", "--out", "o", *flag]
                for command in ("run", "predict")
                for flag in (["--no-idf-floor"], ["--query-idf", "classic"])
            ],
            # the t-tests' level is a constant and m the number of baselines compared
            ["run", "--index", "index.qx", "--queries", "q.tsv", "--alpha", "0.05"],
            ["run", "--index", "index.qx", "--queries", "q.tsv", "--comparisons", "3"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse's own code 2 is the documented partial-failure code
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qexp") and "error:" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qexp")


class TestOptionSurface:
    # an option is added or dropped on purpose: this list changes with it
    OPTIONS = {
        "index": ["--corpus", "--categories", "--out"],
        "rank": ["--index", "--queries", "--model", "--k", "--out"],
        "expand": ["--index", "--queries", "--method", "--model", "--k", "--out"],
        "predict": ["--index", "--queries", "--predictors", "--category-names", "--k", "--out"],
        "run": [
            "--index", "--queries", "--rankers", "--run-file", "--expanders", "--predictors",
            "--category-names", "--k", "--out-dir",
        ],
        "analyze-exposure": ["--k", "--m", "--mode", "--samples", "--seed", "--out-dir"],
    }

    @staticmethod
    def parser_options():
        parser = qexp.cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {
            name: [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
            for name, sub in commands.choices.items()
        }

    def test_each_command_has_exactly_its_options(self):
        options = self.parser_options()
        assert options == self.OPTIONS
        assert sum(map(len, options.values())) == 35

    def test_readme_names_only_options_some_command_has(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
        known = {option for options in self.parser_options().values() for option in options}
        # --help, and pip's flag in the install block
        assert named - known <= {"--help", "--no-build-isolation"}

    def test_run_config_json_has_exactly_the_run_options(self, workspace):
        out_dir = workspace / "out"
        assert main([
            "run", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"), "--k", "5", "--out-dir", str(out_dir),
        ]) == 0
        config = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
        assert sorted(config) == [
            "category_names", "expanders", "index", "k",
            "out_dir", "predictors", "queries", "rankers", "run_files",
        ]


class TestOptionTable:
    @pytest.mark.parametrize("command", list(TestOptionSurface.OPTIONS))
    def test_command_help_exits_0_and_its_usage_names_its_options(self, capsys, command):
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert usage.startswith(f"usage: qexp {command} [-h]")
        named = re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", usage)
        assert named == TestOptionSurface.OPTIONS[command]

    def test_every_declared_option_is_taken_by_some_command(self):
        taken = {flag for flags in TestOptionSurface.parser_options().values() for flag in flags}
        assert set(qexp.cli.OPTIONS) == taken
        assert len(qexp.cli.OPTIONS) == 18  # for the 35 options of TestOptionSurface

    def test_run_files_of_one_parse_are_not_seen_by_the_next(self):
        source = ["run", "--index", "index.qx", "--queries", "q.tsv"]
        first = qexp.cli.build_parser().parse_args([*source, "--run-file", "a.trec"])
        second = qexp.cli.build_parser().parse_args(source)
        assert (first.run_files, second.run_files) == (["a.trec"], [])
        assert qexp.cli.OPTIONS["--run-file"]["default"] == []


@pytest.mark.parametrize("command", ["rank", "expand", "predict", "run"])
@pytest.mark.parametrize(
    "source", [[], ["--corpus"], ["--categories"], ["--corpus", "--categories"]]
)
def test_missing_index_source_exits_1_before_loading(
    workspace, capsys, monkeypatch, command, source
):
    # only qexp index reads a corpus: the other commands read what it wrote
    files = {"--corpus": "corpus.jsonl", "--categories": "categories.json"}
    source = [arg for flag in source for arg in (flag, str(workspace / files[flag]))]

    def no_load(path):
        raise AssertionError("a file was loaded")

    monkeypatch.setattr(qexp.cli, "load_corpus_jsonl", no_load)
    monkeypatch.setattr(qexp.cli.CollectionIndex, "load", no_load)
    monkeypatch.setattr(qexp.cli, "load_queries_tsv", no_load)
    out = workspace / "out"
    argv = [command, *source, "--queries", str(workspace / "queries.tsv")]
    argv += ["--out-dir", str(out)] if command == "run" else ["--out", str(out)]
    if command == "expand":
        argv += ["--method", "rm3"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qexp {command}")
    assert err.endswith("error: the following arguments are required: --index\n")
    assert not out.exists()


class TestIndexCommand:
    def test_build_and_summary(self, workspace, capsys):
        out = workspace / "built.qx"
        code = main([
            "index", "--corpus", str(workspace / "corpus.jsonl"),
            "--categories", str(workspace / "categories.json"),
            "--out", str(out),
        ])
        assert code == 0
        assert "docs=10" in capsys.readouterr().out
        assert out.exists()

    def test_malformed_jsonl_names_line(self, workspace, capsys):
        bad = workspace / "bad.jsonl"
        bad.write_text('{"doc_id": "d1", "text": "t000", "labels": {"c": "A"}}\n{broken\n', encoding="utf-8")
        code = main([
            "index", "--corpus", str(bad),
            "--categories", str(workspace / "categories.json"),
            "--out", str(workspace / "x.qx"),
        ])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corpus_line, categories, message",
        [
            (None, '["a"]', "categories.json: expected a category object, got 'a'"),
            (None, '{"name": "c", "groups": 5}', "categories.json: category 'c': groups must be a JSON list"),
            (None, '{"name": "c", "groups": "ab"}', "categories.json: category 'c': groups must be a JSON list"),
            (None, '{"name": "c",', "categories.json: line 1: malformed JSON (Expecting"),
            (None, '{"name": "c", "groups": []}', "categories.json: category 'c' has no groups"),
            (None, '{"name": "c", "groups": ["A", "A"]}',
             "categories.json: category 'c' has duplicate group names"),
            ('{"doc_id": "d10", "text": "t000", "labels": ["a"]}', None,
             "corpus.jsonl: line 11: labels must be a JSON object"),
            ('{"doc_id": "d10", "text": "t000", "labels": null}', None,
             "corpus.jsonl: line 11: labels must be a JSON object"),
            ('{"doc_id": "d10", "text": "t000", "labels": {"c": null}}', None,
             "corpus.jsonl: line 11: label 'c' must be a JSON string"),
            ('{"doc_id": "d10", "text": "t000", "labels": {"c": 7}}', None,
             "corpus.jsonl: line 11: label 'c' must be a JSON string"),
            (None, '{"name": null, "groups": ["A", "B"]}',
             "categories.json: category name None is not a JSON string"),
            (None, '{"name": "c", "groups": [1, null]}',
             "categories.json: category 'c': groups must be a JSON list of strings"),
            *[
                (json.dumps({"doc_id": "d10", "text": "t000", "labels": {}, field: value}), None,
                 f"corpus.jsonl: line 11: {field} must be a JSON string")
                for field in ("doc_id", "text")
                for value in (None, 7, ["d10"])
            ],
            (DEEP_JSON, None, "corpus.jsonl: line 11: malformed JSON (nested too deeply)"),
            (None, DEEP_JSON, "categories.json: malformed JSON (nested too deeply)"),
            (LONG_INT, None, "corpus.jsonl: line 11: malformed JSON (integer too long)"),
            (None, f"[{LONG_INT}]", "categories.json: malformed JSON (integer too long)"),
            # build_index's checks, named by the file they come from
            (None, "[]", "categories.json: no categories"),
            (None, '[{"name": "c", "groups": ["A", "B"]}, {"name": "c", "groups": ["A"]}]',
             "categories.json: the category list repeats c"),
            ('{"doc_id": "d00", "text": "t000", "labels": {"c": "A"}}', None,
             "corpus.jsonl: duplicate doc_id 'd00'"),
            ('{"doc_id": "d10", "text": "t000", "labels": {"c": "z"}}', None,
             "corpus.jsonl: doc 'd10': unknown group 'z' for category 'c'"),
            # json.loads would keep the last of a repeated key's values
            ('{"doc_id": "d10", "text": "t000", "labels": {"c": "A", "c": "B"}}', None,
             "corpus.jsonl: line 11: a JSON object repeats the key 'c'"),
            ('{"doc_id": "d10", "doc_id": "d11", "text": "t000", "labels": {"c": "A"}}', None,
             "corpus.jsonl: line 11: a JSON object repeats the key 'doc_id'"),
            (None, '{"name": "c", "groups": ["A"], "groups": ["A", "B"]}',
             "categories.json: a JSON object repeats the key 'groups'"),
            # a lone surrogate escape decodes, but no output file can hold it
            ('{"doc_id": "d\\ud800", "text": "t000", "labels": {"c": "A"}}', None,
             "corpus.jsonl: doc_id 'd\\ud800' cannot be written as UTF-8"),
            (None, '{"name": "c\\ud800", "groups": ["A", "B"]}',
             "categories.json: category name 'c\\ud800' cannot be written as UTF-8"),
            (None, '{"name": "c", "groups": ["A", "B\\udc00"]}',
             "categories.json: category 'c': group 'B\\udc00' cannot be written as UTF-8"),
        ],
    )
    def test_malformed_input_exits_1_naming_the_file(
        self, workspace, capsys, corpus_line, categories, message
    ):
        corpus, categories_file = workspace / "corpus.jsonl", workspace / "categories.json"
        if corpus_line is not None:
            corpus.write_text(corpus.read_text(encoding="utf-8") + corpus_line + "\n", encoding="utf-8")
        if categories is not None:
            categories_file.write_text(categories, encoding="utf-8")
        code = main([
            "index", "--corpus", str(corpus), "--categories", str(categories_file),
            "--out", str(workspace / "x.qx"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workspace}") and message in err
        assert not (workspace / "x.qx").exists()

    def test_empty_corpus_exits_1_naming_the_file(self, workspace, capsys):
        corpus = workspace / "corpus.jsonl"
        corpus.write_text("\n", encoding="utf-8")
        code = main([
            "index", "--corpus", str(corpus), "--categories", str(workspace / "categories.json"),
            "--out", str(workspace / "x.qx"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {corpus}: no documents\n"

    def test_escaped_surrogate_pairs_index_rank_and_run(self, workspace):
        # "\\ud83d\\ude00" decodes to the one code point U+1F600, which UTF-8 holds
        corpus, categories = workspace / "corpus.jsonl", workspace / "categories.json"
        corpus.write_text(corpus.read_text(encoding="utf-8") + (
            '{"doc_id": "d\\ud83d\\ude00", "text": "t000 t001",'
            ' "labels": {"c": "A", "e\\ud83d\\ude00": "g\\ud83d\\ude00"}}\n'
        ), encoding="utf-8")
        categories.write_text(
            '[{"name": "c", "groups": ["A", "B"]},'
            ' {"name": "e\\ud83d\\ude00", "groups": ["g\\ud83d\\ude00", "Unknown"]}]',
            encoding="utf-8",
        )
        index, run_file = workspace / "emoji.qx", workspace / "run.trec"
        source = ["--index", str(index), "--queries", str(workspace / "queries.tsv")]
        assert main(["index", "--corpus", str(corpus), "--categories", str(categories),
                     "--out", str(index)]) == 0
        assert main(["rank", *source, "--k", "5", "--out", str(run_file)]) == 0
        assert "d\U0001f600" in run_file.read_text(encoding="utf-8").split()
        assert main(["run", *source, "--k", "5", "--out-dir", str(workspace / "out")]) == 0
        assert ",e\U0001f600," in (workspace / "out" / "jsd.csv").read_text(encoding="utf-8")

    def test_relabeling_changes_only_group_stats(self, workspace):
        relabeled = workspace / "relabel.jsonl"
        out_lines = []
        for line in (workspace / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            obj["labels"]["c"] = "B" if obj["labels"]["c"] == "A" else "A"
            out_lines.append(json.dumps(obj))
        relabeled.write_text("\n".join(out_lines) + "\n", encoding="utf-8")

        p1, p2 = workspace / "a.qx", workspace / "b.qx"
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--categories", str(workspace / "categories.json"), "--out", str(p1)]) == 0
        assert main(["index", "--corpus", str(relabeled),
                     "--categories", str(workspace / "categories.json"), "--out", str(p2)]) == 0
        a, b = CollectionIndex.load(p1), CollectionIndex.load(p2)
        for term in a.vocabulary:
            assert a.term_stats(term) == b.term_stats(term)
        assert a.group_postings("t000", "c") != b.group_postings("t000", "c")


class TestCorruptIndex:
    def _predict(self, workspace, index_path):
        return main([
            "predict", "--index", str(index_path),
            "--queries", str(workspace / "queries.tsv"),
            "--out", str(workspace / "pred.jsonl"),
        ])

    def test_truncated_index_exits_1(self, workspace, capsys):
        path = workspace / "index.qx"
        path.write_bytes(path.read_bytes()[:-20])
        assert self._predict(workspace, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "index.qx" in err

    def test_magic_only_index_exits_1(self, workspace, capsys):
        path = workspace / "index.qx"
        path.write_bytes(INDEX_MAGIC)
        assert self._predict(workspace, path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "index.qx" in err

    def test_version_1_index_exits_1(self, workspace, capsys):
        path = workspace / "index.qx"
        path.write_bytes(INDEX_MAGIC + bytes([1]) + path.read_bytes()[len(INDEX_MAGIC) + 1 :])
        code = main([
            "rank", "--index", str(path), "--queries", str(workspace / "queries.tsv"),
            "--out", str(workspace / "run.trec"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: unsupported index format version 1\n"


# ------------------------- mutated input files -----------------------------
# Each input kind: its file in the boundary workspace, the form of its
# content ("document" for one JSON value, "lines" for JSON Lines, None for
# whitespace-separated fields) and the command that reads it.
INPUT_KINDS = {
    "corpus": ("corpus.jsonl", "lines", ["index", "--corpus", "{mutated}",
               "--categories", "{ws}/categories.json", "--out", "{ws}/out.qx"]),
    "categories": ("categories.json", "document", ["index", "--corpus", "{ws}/corpus.jsonl",
                   "--categories", "{mutated}", "--out", "{ws}/out.qx"]),
    "queries": ("queries.tsv", None, ["rank", "--index", "{ws}/index.qx",
                "--queries", "{mutated}", "--out", "{ws}/out.trec"]),
    "index": ("index.qx", "document", ["rank", "--index", "{mutated}",
              "--queries", "{ws}/queries.tsv", "--out", "{ws}/out.trec"]),
    "run file": ("run.trec", None, ["run", "--index", "{ws}/index.qx",
                 "--queries", "{ws}/queries.tsv", "--rankers", "", "--run-file", "{mutated}",
                 "--out-dir", "{ws}/out"]),
}
WRONG_TYPES = [None, True, 0, 1.5, "x", [], {}, [0], {"x": 0}, 10**400]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


@pytest.fixture(scope="module")
def boundary_workspace(tmp_path_factory):
    ws = make_workspace(tmp_path_factory.mktemp("boundary"))
    assert main(["rank", "--index", str(ws / "index.qx"), "--queries", str(ws / "queries.tsv"),
                 "--out", str(ws / "run.trec")]) == 0
    return ws


def json_nodes(value, path=()):
    """The path of every value inside a decoded JSON document, the root's included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_nodes(item, path + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def with_repeated_key(draw, text: bytes, form) -> bytes:
    """The text with one key of one JSON object written a second time, with a WRONG_TYPES
    value or its own."""
    if form == "lines":  # one line of the JSONL corpus
        lines = text.split(b"\n")
        i = draw(st.integers(0, len(lines) - 2))
        return b"\n".join(lines[:i] + [with_repeated_key(draw, lines[i], "document")]
                          + lines[i + 1:])
    doc = json.loads(text)
    objects = {path: node for path in json_nodes(doc)
               if isinstance(node := reduce(operator.getitem, path, doc), dict) and node}
    path = draw(st.sampled_from(list(objects)))
    obj = objects[path]
    key = draw(st.sampled_from(list(obj)))
    value = draw(st.sampled_from(WRONG_TYPES + [obj[key]]))
    repeated = f"{json.dumps(obj)[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"
    mark = "\0repeated"  # no input holds a NUL
    return json.dumps(replaced(doc, path, mark)).replace(json.dumps(mark), repeated).encode()


def retyped(draw, text: bytes, form) -> bytes:
    """The text with one JSON value (one field, if it is not JSON) replaced by a WRONG_TYPES one."""
    if form == "lines":  # one line of the JSONL corpus
        lines = text.split(b"\n")
        i = draw(st.integers(0, len(lines) - 2))
        return b"\n".join(lines[:i] + [retyped(draw, lines[i], "document")] + lines[i + 1:])
    new = draw(st.sampled_from(WRONG_TYPES))
    if form == "document":
        doc = json.loads(text)
        path = draw(st.sampled_from(list(json_nodes(doc))))
        return json.dumps(replaced(doc, path, new)).encode()
    fields = re.split(rb"(\s+)", text)  # fields at even positions, separators between
    i = 2 * draw(st.integers(0, len(fields) // 2 - 1))
    return b"".join(fields[:i] + [json.dumps(new).encode()] + fields[i + 1:])


class TestMalformedInputFiles:
    @pytest.mark.parametrize("name, read", [
        ("corpus.jsonl", load_corpus_jsonl),
        ("categories.json", load_categories_json),
        ("queries.tsv", load_queries_tsv),
        ("run.trec", read_run_file),
    ])
    def test_every_reader_names_the_line_of_a_non_utf8_byte(self, workspace, name, read):
        path = workspace / name
        if name == "run.trec":
            path.write_text("q1 Q0 d00 1 2.5 bm25\n", encoding="utf-8")
        data = path.read_bytes().rstrip(b"\n") + b"\n"
        path.write_bytes(data + b"\xff\n")
        with pytest.raises(CorpusError) as raised:
            read(path)
        line = data.count(b"\n") + 1
        assert str(raised.value) == f"{path}: line {line}: not UTF-8 (invalid start byte)"

    @pytest.mark.parametrize("name", ["corpus.jsonl", "categories.json", "queries.tsv", "run.trec"])
    def test_a_leading_byte_order_mark_is_skipped(self, workspace, monkeypatch, name):
        monkeypatch.chdir(workspace)
        Path("run.trec").write_text(
            "q1 Q0 d00 1 2.5 ext\nq1 Q0 d05 2 1.5 ext\nq2 Q0 d05 1 2.0 ext\nq3 Q0 d09 1 1.0 ext\n",
            encoding="utf-8",
        )

        def outputs():
            out = Path("out")
            out.mkdir()
            assert main([
                "index", "--corpus", "corpus.jsonl", "--categories", "categories.json",
                "--out", "out/index.qx",
            ]) == 0
            assert main([
                "rank", "--index", "out/index.qx", "--queries", "queries.tsv", "--k", "5",
                "--out", "out/ranked.trec",
            ]) == 0
            assert main([
                "run", "--index", "out/index.qx", "--queries", "queries.tsv", "--rankers", "",
                "--run-file", "run.trec", "--k", "5", "--out-dir", "out/exp",
            ]) == 0
            blobs = {str(p): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            shutil.rmtree(out)
            return blobs

        plain = outputs()
        Path(name).write_bytes(b"\xef\xbb\xbf" + Path(name).read_bytes())
        assert outputs() == plain

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exit_0_or_one_error_line_naming_the_file(self, boundary_workspace, data):
        """A mutated input is valid, or rejected in one line that names its file.

        The file is truncated, has one byte flipped, is replaced by deeply
        nested JSON or by an integer too long for Python to parse, has one
        value replaced by a value of another JSON type (most often), has
        bytes inserted that are not UTF-8, or (a JSON file) has one key of
        one object repeated. An index is mutated inside its gzip payload.
        A corpus or categories file with a repeated key is rejected; an
        index is not checked for one, as build_index cannot write it.
        """
        ws = boundary_workspace
        kind = data.draw(st.sampled_from(sorted(INPUT_KINDS)))
        name, form, argv = INPUT_KINDS[kind]
        content = (ws / name).read_bytes()
        if kind == "index":
            content = gzip.decompress(content[len(INDEX_MAGIC) + 1:])
        mutation = data.draw(st.sampled_from(
            ["truncate", "flip", "deep", "long int", "retype", "not utf-8"]
            + (["repeat a key"] if form else [])))
        if mutation == "truncate":
            content = content[:data.draw(st.integers(0, len(content) - 1))]
        elif mutation == "flip":
            i, mask = data.draw(st.integers(0, len(content) - 1)), data.draw(st.integers(1, 255))
            content = content[:i] + bytes([content[i] ^ mask]) + content[i + 1:]
        elif mutation == "deep":
            content = DEEP_JSON.encode()
        elif mutation == "long int":
            content = LONG_INT.encode()
        elif mutation == "retype":
            content = retyped(data.draw, content, form)
        elif mutation == "repeat a key":
            content = with_repeated_key(data.draw, content, form)
        else:
            i = data.draw(st.integers(0, len(content)))
            content = content[:i] + data.draw(st.sampled_from(NOT_UTF8)) + content[i:]
        mutated = ws / ("mutated-" + name)
        if kind == "index":
            content = INDEX_MAGIC + bytes([INDEX_FORMAT_VERSION]) + gzip.compress(content)
        mutated.write_bytes(content)

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(ws=ws, mutated=mutated) for arg in argv])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        if mutation == "repeat a key" and kind != "index":
            assert code == 1 and "repeats the key" in err, (code, err)
        if code == 0:
            assert err == ""
            return
        assert code == 1 or (code == 2 and kind == "run file"), (code, err)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            # categories that the documents do not fit are reported against the corpus
            named = [mutated] + ([ws / "corpus.jsonl"] if kind == "categories" else [])
            # a well-formed queries file may hold a query that cannot be ranked
            assert any(str(path) in err for path in named) or (
                kind == "queries" and err.startswith("error: query '")), err


# one path per field shape of the boundary workspace's index payload
INDEX_FIELDS = [
    (), ("categories",), ("categories", 0), ("categories", 0, "name"),
    ("categories", 0, "groups"), ("categories", 0, "groups", 0),
    ("docs",), ("docs", 0), ("docs", 0, "id"), ("docs", 0, "labels"), ("docs", 0, "labels", "c"),
    ("postings",), ("postings", "t000"), ("postings", "t000", "d00"),
]


class TestRetypedIndexFields:
    """Every WRONG_TYPES value in every field shape of an index, each case
    run, which the mutation property above reaches only by chance."""

    @pytest.mark.parametrize("new", WRONG_TYPES, ids=lambda v: "10**400" if v == 10**400 else repr(v))
    @pytest.mark.parametrize("path", INDEX_FIELDS, ids=lambda p: "/".join(map(str, p)) or "root")
    def test_exit_0_or_one_error_line_naming_the_file(self, boundary_workspace, tmp_path, capsys,
                                                      path, new):
        ws = boundary_workspace
        blob = (ws / "index.qx").read_bytes()
        payload = json.loads(gzip.decompress(blob[len(INDEX_MAGIC) + 1:]))
        reduce(operator.getitem, path, payload)  # the field exists
        mutated = tmp_path / "index.qx"
        mutated.write_bytes(INDEX_MAGIC + bytes([INDEX_FORMAT_VERSION])
                            + gzip.compress(json.dumps(replaced(payload, path, new)).encode()))
        code = main(["rank", "--index", str(mutated), "--queries", str(ws / "queries.tsv"),
                     "--out", str(tmp_path / "out.trec")])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if code == 0:
            assert err == ""
        else:
            assert code == 1, (code, err)
            assert err.startswith(f"error: {mutated}") and err.count("\n") == 1, err


def test_queries_file_stems_each_distinct_word_once(tmp_path, monkeypatch):
    lines = [
        ("q1", "Libraries of museums"), ("q2", "museum libraries"), ("q3", "Rational museums"),
    ]
    path = tmp_path / "queries.tsv"
    path.write_text("".join(f"{qid}\t{text}\n" for qid, text in lines), encoding="utf-8")
    # the queries tokenized one by one, each with its own memo
    expected = [Query.from_text(text, query_id=qid) for qid, text in lines]
    stemmed = []
    real_stem = qexp.text.stem

    def counting_stem(word):
        stemmed.append(word)
        return real_stem(word)

    monkeypatch.setattr(qexp.text, "stem", counting_stem)
    assert load_queries_tsv(path) == expected
    # the three queries hold four distinct words
    assert sorted(stemmed) == ["libraries", "museum", "museums", "rational"]


class TestRankAndExpand:
    @pytest.mark.parametrize("model", ["bm25", "tfidf"])
    def test_rank_writes_run_file_tagged_with_the_model(self, workspace, model):
        out = workspace / "run.trec"
        code = main([
            "rank", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"),
            "--model", model, "--k", "5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            fields = line.split()
            assert len(fields) == 6 and fields[5] == model

    @pytest.mark.parametrize("line, qid", [("q 2\tt004", "q 2"), ("\tt004", ""), (" \tt004", "")])
    def test_query_id_a_run_file_cannot_carry_exits_1(self, workspace, capsys, line, qid):
        queries = workspace / "queries.tsv"
        queries.write_text(f"q1\tt000\n{line}\n", encoding="utf-8")
        out = workspace / "run.trec"
        code = main([
            "rank", "--index", str(workspace / "index.qx"),
            "--queries", str(queries), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {queries}: line 2: query id {qid!r} is empty or contains whitespace\n"
        )
        assert not out.exists()

    def test_ranked_run_file_evaluates_like_its_ranker(self, workspace):
        source = [
            "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"),
        ]
        run = workspace / "run.trec"
        assert main(["rank", *source, "--model", "bm25", "--k", "5", "--out", str(run)]) == 0
        jsds = []
        for rankers in (["--rankers", "bm25"], ["--rankers", "", "--run-file", str(run)]):
            out_dir = workspace / "out"
            assert main(["run", *source, *rankers, "--k", "5", "--out-dir", str(out_dir)]) == 0
            with open(out_dir / "jsd.csv", encoding="utf-8") as fh:
                jsds.append({
                    (r["query_id"], r["category"], r["predictor"]): r["jsd"]
                    for r in csv.DictReader(fh)
                })
        assert len(jsds[1]) == 3 * 6
        assert jsds[1] == jsds[0]

    @pytest.mark.parametrize("command", ["rank", "expand"])
    def test_failing_query_is_named_and_nothing_written(self, workspace, capsys, command):
        queries = workspace / "queries.tsv"
        queries.write_text("q1\tt000 t001\nq2\tthe of and\n", encoding="utf-8")
        out = workspace / "out"
        argv = [
            command, "--index", str(workspace / "index.qx"),
            "--queries", str(queries), "--out", str(out),
        ]
        if command == "expand":
            argv += ["--method", "rm3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: query 'q2': cannot rank an empty query\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("rank", ("--k", "0"), "k must be >= 1"),
            ("expand", ("--k", "0"), "k must be >= 1"),
        ],
    )
    def test_bad_option_exits_1_before_loading(
        self, workspace, capsys, monkeypatch, command, extra, message
    ):
        def no_load(path):
            raise AssertionError("the index was loaded")

        monkeypatch.setattr(qexp.cli.CollectionIndex, "load", no_load)
        out = workspace / "out"
        argv = [command, "--index", "index.qx", "--queries", "q.tsv", "--out", str(out), *extra]
        if command == "expand":
            argv += ["--method", "rm3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_expand_writes_jsonl(self, workspace):
        out = workspace / "expanded.jsonl"
        code = main([
            "expand", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"),
            "--method", "rm3", "--k", "5", "--out", str(out),
        ])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert {r["query_id"] for r in rows} == {"q1", "q2", "q3"}
        for r in rows:
            assert set(r) == {"query_id", "terms", "weights", "expanded"}
            assert len(r["terms"]) == len(r["weights"])


class TestPredictCommand:
    def test_predictions_jsonl(self, workspace):
        out = workspace / "pred.jsonl"
        code = main([
            "predict", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"),
            "--predictors", "gep,avidf", "--k", "5", "--out", str(out),
        ])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 3 * 1 * 2
        for r in rows:
            assert r["groups"] == ["A", "B"]
            assert sum(r["distribution"]) == pytest.approx(1.0)

    def test_empty_category_names_predict_every_category(self, workspace):
        def predict(name, *extra):
            out = workspace / name
            assert main([
                "predict", "--index", str(workspace / "index.qx"),
                "--queries", str(workspace / "queries.tsv"), "--out", str(out), *extra,
            ]) == 0
            return out.read_bytes()

        assert predict("empty.jsonl", "--category-names", ",") == predict("all.jsonl")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--predictors", "avidf", "--k", "0"), "k must be >= 1"),
            (("--predictors", "gep", "--k", "0"), "k must be >= 1"),
            (("--category-names", "nope"), "unknown category 'nope'"),
            (("--predictors", ""), "at least one predictor is required"),
            (("--predictors", "gep,avidf,gep"), "the predictor list repeats gep"),
        ],
    )
    def test_bad_argument_exits_1_before_writing(self, workspace, capsys, extra, message):
        out = workspace / "pred.jsonl"
        code = main([
            "predict", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"), "--out", str(out), *extra,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_repeated_category_name_exits_1_before_loading(self, workspace, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError("the index was loaded")

        monkeypatch.setattr(qexp.cli.CollectionIndex, "load", no_load)
        out = workspace / "pred.jsonl"
        code = main([
            "predict", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"), "--out", str(out),
            "--category-names", "c,c",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: --category-names repeats c\n"
        assert not out.exists()

    def test_failing_query_is_named_and_nothing_written(self, workspace, capsys):
        queries = workspace / "queries.tsv"
        queries.write_text("q1\tt000 t001\nq2\tthe of and\n", encoding="utf-8")
        out = workspace / "pred.jsonl"
        code = main([
            "predict", "--index", str(workspace / "index.qx"),
            "--queries", str(queries), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: query 'q2': cannot predict for an empty query\n"
        assert not out.exists()


class TestRunCommand:
    def _run(self, workspace, out_dir, extra=()):
        return main([
            "run", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"),
            "--rankers", "bm25", "--expanders", "none",
            "--predictors", "gep,scs,avidf,avictf,avpmi,cori",
            "--k", "5", "--out-dir", str(out_dir), *extra,
        ])

    def test_row_count_contract(self, workspace):
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir) == 0
        with open(out_dir / "jsd.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 1 * 6  # queries x categories x predictors
        assert (out_dir / "config.json").exists()
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["pipelines"][0]["categories"]["c"]["mean_jsd"]["gep"] >= 0

    def test_determinism_byte_identical(self, workspace):
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir) == 0
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("jsd.csv", "cv.csv", "summary.json", "config.json")
        }
        assert self._run(workspace, out_dir) == 0
        for name, blob in first.items():
            assert (out_dir / name).read_bytes() == blob, name

    def test_partial_failure_exit_code(self, workspace):
        queries = workspace / "queries.tsv"
        queries.write_text(queries.read_text(encoding="utf-8") + "qbad\tthe of and\n", encoding="utf-8")
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir) == 2
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["failures"][0]["query_id"] == "qbad"

    @pytest.mark.parametrize("missing", ["--index", "--queries", "--run-file"])
    def test_validation_error_exit_code(self, workspace, capsys, missing):
        files = {"--index": workspace / "index.qx", "--queries": workspace / "queries.tsv"}
        files[missing] = workspace / "missing.file"
        argv = ["run", "--out-dir", str(workspace / "out")]
        argv += [arg for flag, path in files.items() for arg in (flag, str(path))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(files[missing]) in err and "Traceback" not in err
        assert not (workspace / "out").exists()

    def test_duplicate_query_id_exits_1(self, workspace, capsys):
        # predictions are cached per query id, so a repeat must not reach the run
        queries = workspace / "queries.tsv"
        queries.write_text("q1\tt000\nq1\tt002\n", encoding="utf-8")
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2" in err and "'q1'" in err
        assert not (out_dir / "jsd.csv").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--expanders", ""), "at least one expander is required"),
            (("--rankers", "bm25,tfidf,bm25"), "the ranker list repeats bm25"),
            (("--expanders", "none,rm3,rm3"), "the expander list repeats rm3"),
            (("--rankers", "", "--run-file", "{run}", "--run-file", "{run}"),
             "the ranker list repeats runfile:{run}"),
            (("--category-names", "c,c"), "the category list repeats c"),
            (("--predictors", ""), "at least one predictor is required"),
            (("--predictors", "gep,avidf,gep"), "the predictor list repeats gep"),
            (("--rankers", "bm26"), "unknown ranker 'bm26'"),
        ],
    )
    def test_empty_or_repeated_grid_exits_1_before_loading(
        self, workspace, capsys, monkeypatch, extra, message
    ):
        run = workspace / "run.trec"
        run.write_text("q1 Q0 d00 1 1.0 ext\n", encoding="utf-8")

        def no_load(path):
            raise AssertionError("the index was loaded")

        monkeypatch.setattr(qexp.cli.CollectionIndex, "load", no_load)
        out_dir = workspace / "out"
        extra = [arg.format(run=run) for arg in extra]
        assert self._run(workspace, out_dir, extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message.format(run=run) in err
        assert not out_dir.exists()

    def test_unknown_category_error_is_unquoted(self, workspace, capsys):
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir, ("--category-names", "nope")) == 1
        assert capsys.readouterr().err == "error: unknown category 'nope'\n"
        assert not out_dir.exists()

    def _run_file_run(self, workspace, run, out_dir):
        return main([
            "run", "--index", str(workspace / "index.qx"),
            "--queries", str(workspace / "queries.tsv"), "--rankers", "",
            "--run-file", str(run), "--expanders", "none",
            "--predictors", "uniform", "--k", "5", "--out-dir", str(out_dir),
        ])

    def test_bad_run_file_ranking_fails_only_its_query(self, workspace):
        # q1's ranks disagree with its scores, q2 repeats a doc, q3 is valid,
        # q4 repeats a rank (its scores would pass in either order)
        with open(workspace / "queries.tsv", "a", encoding="utf-8") as fh:
            fh.write("q4\tt000 t003\n")
        run = workspace / "ext.trec"
        run.write_text(
            "q1 Q0 d00 1 1.0 ext\n"
            "q1 Q0 d01 2 2.0 ext\n"
            "q2 Q0 d05 1 2.0 ext\n"
            "q2 Q0 d05 2 1.0 ext\n"
            "q3 Q0 d00 1 2.0 ext\n"
            "q3 Q0 d05 2 1.0 ext\n"
            "q4 Q0 d00 1 6.0 ext\n"
            "q4 Q0 d01 2 5.0 ext\n"
            "q4 Q0 d03 2 5.0 ext\n",
            encoding="utf-8",
        )
        out_dir = workspace / "out"
        assert self._run_file_run(workspace, run, out_dir) == 2
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        failures = {f["query_id"]: f for f in summary["failures"]}
        assert set(failures) == {"q1", "q2", "q4"}
        for qid, failure in failures.items():
            assert failure["stage"] == "ranking"
            assert failure["error"].startswith(f"{run}: query {qid!r}: ")
        assert failures["q4"]["error"] == f"{run}: query 'q4': rank 2 is repeated"
        with open(out_dir / "jsd.csv", encoding="utf-8") as fh:
            assert {r["query_id"] for r in csv.DictReader(fh)} == {"q3"}

    def test_run_file_failure_errors_are_plain_messages(self, workspace):
        # q1 ranks a document the index does not hold, q2 is missing, q3 is valid
        run = workspace / "ext.trec"
        run.write_text(
            "q1 Q0 d00 1 2.0 ext\n"
            "q1 Q0 nodoc 2 1.0 ext\n"
            "q3 Q0 d00 1 2.0 ext\n",
            encoding="utf-8",
        )
        out_dir = workspace / "out"
        assert self._run_file_run(workspace, run, out_dir) == 2
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert [(f["query_id"], f["stage"], f["error"]) for f in summary["failures"]] == [
            ("q1", "exposure", "unknown document 'nodoc'"),
            ("q2", "ranking", "run file has no ranking for query 'q2'"),
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("q1 Q0 d00 1 5.0\n", "expected 6"),
            ("q1 Q0 d00 one 5.0 ext\n", "bad rank or score"),
            # a NaN score would pass a ranking's non-increasing check
            ("q1 Q0 d00 2 nan ext\n", "bad rank or score"),
            ("q1 Q0 d00 2 -inf ext\n", "bad rank or score"),
            # ranks start at 1: these sorted ahead of rank 1 instead of failing
            ("q1 Q0 d00 0 7.0 ext\n", "bad rank or score"),
            ("q1 Q0 d00 -2 7.0 ext\n", "bad rank or score"),
        ],
    )
    def test_malformed_run_file_line_exits_1(self, workspace, capsys, line, message):
        run = workspace / "ext.trec"
        run.write_text("q1 Q0 d01 1 6.0 ext\n" + line, encoding="utf-8")
        assert self._run_file_run(workspace, run, workspace / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run}: line 2: ") and message in err

    def test_external_run_file_exposure(self, workspace):
        # five-line run file: A docs at positions 1, 3, 5; B at 2, 4
        run = workspace / "ext.trec"
        run.write_text(
            "q1 Q0 d00 1 5.0 ext\n"
            "q1 Q0 d05 2 4.0 ext\n"
            "q1 Q0 d01 3 3.0 ext\n"
            "q1 Q0 d06 4 2.0 ext\n"
            "q1 Q0 d02 5 1.0 ext\n",
            encoding="utf-8",
        )
        queries = workspace / "one.tsv"
        queries.write_text("q1\tt000 t001\n", encoding="utf-8")
        out_dir = workspace / "out"
        code = main([
            "run", "--index", str(workspace / "index.qx"),
            "--queries", str(queries), "--rankers", "",
            "--run-file", str(run), "--expanders", "none",
            "--predictors", "uniform", "--k", "5", "--out-dir", str(out_dir),
        ])
        assert code == 0
        e = [position_exposure(p) for p in range(1, 6)]
        a = e[0] + e[2] + e[4]
        b = e[1] + e[3]
        share_a = a / (a + b)
        mu = 0.5
        sigma = math.sqrt(((share_a - mu) ** 2 + ((1 - share_a) - mu) ** 2) / 2)
        with open(out_dir / "cv.csv", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["cv_percent"]) == pytest.approx(sigma / mu * 100, abs=1e-9)

    def test_run_and_predict_outputs_do_not_depend_on_the_python_version(
        self, tmp_path, monkeypatch
    ):
        # the builtin sum of Python 3.12 and later compensates float rounding;
        # patched into every module that adds floats, it stands in for 3.12
        docs, categories, queries = make_planted_skew_corpus(docs_per_group=20, num_queries=12)
        build_index(docs, categories).save(tmp_path / "index.qx")
        (tmp_path / "queries.tsv").write_text(
            "".join(f"{q.query_id}\t{' '.join(q.terms)}\n" for q in queries),
            encoding="utf-8",
        )
        source = [
            "--index", str(tmp_path / "index.qx"),
            "--queries", str(tmp_path / "queries.tsv"),
            "--predictors", ",".join(PREDICTORS), "--k", "20",
        ]

        def outputs(name):
            out_dir = tmp_path / name
            assert main([
                "run", *source, "--rankers", "bm25,tfidf", "--expanders", "none,rm3,klq",
                "--out-dir", str(out_dir),
            ]) == 0
            assert main(["predict", *source, "--out", str(out_dir / "pred.jsonl")]) == 0
            names = ("jsd.csv", "cv.csv", "summary.json", "pred.jsonl")
            return {name: (out_dir / name).read_bytes() for name in names}

        plain = outputs("plain")
        for module in (qexp.predictors, qexp.evaluation, qexp.expansion, qexp.exposure):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        assert outputs("compensated") == plain


class TestStopwordOnlyCorpus:
    """An index with no tokens: its average document length is 0."""

    @pytest.fixture
    def stopword_workspace(self, tmp_path):
        rows = [("d1", "the of and", "A"), ("d2", "is a", "B")]
        (tmp_path / "corpus.jsonl").write_text("".join(
            json.dumps({"doc_id": d, "text": text, "labels": {"c": g}}) + "\n"
            for d, text, g in rows
        ), encoding="utf-8")
        (tmp_path / "categories.json").write_text('[{"name": "c", "groups": ["A", "B"]}]', encoding="utf-8")
        (tmp_path / "queries.tsv").write_text("q1\tt000\n", encoding="utf-8")
        assert main([
            "index", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--categories", str(tmp_path / "categories.json"), "--out", str(tmp_path / "index.qx"),
        ]) == 0
        assert CollectionIndex.load(tmp_path / "index.qx").avg_doc_len == 0.0
        return tmp_path

    @pytest.mark.parametrize("model", ["bm25", "tfidf"])
    def test_rank_writes_no_lines(self, stopword_workspace, capsys, model):
        # BM25 divided by the average document length and raised ZeroDivisionError
        out = stopword_workspace / "run.trec"
        assert main([
            "rank", "--index", str(stopword_workspace / "index.qx"),
            "--queries", str(stopword_workspace / "queries.tsv"),
            "--model", model, "--out", str(out),
        ]) == 0
        assert out.read_text(encoding="utf-8") == ""
        assert "Traceback" not in capsys.readouterr().err

    def test_run_records_no_failures(self, stopword_workspace):
        # every BM25 ranking was recorded as a failure and the run exited 2
        out_dir = stopword_workspace / "out"
        assert main([
            "run", "--index", str(stopword_workspace / "index.qx"),
            "--queries", str(stopword_workspace / "queries.tsv"), "--out-dir", str(out_dir),
        ]) == 0
        assert json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["failures"] == []


class TestSyntheticScript:
    def test_script_prints_the_summary_it_wrote(self, tmp_path, capsys, monkeypatch):
        commands = []

        def recorded(argv):
            commands.append(argv[0])
            return main(argv)

        monkeypatch.setattr(qexp.cli, "main", recorded)
        out_dir = tmp_path / "syn"
        script = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_experiment.py"
        monkeypatch.setattr(sys, "argv", [
            str(script), "--docs-per-group", "20", "--num-queries", "6", "--k", "20",
            "--out-dir", str(out_dir),
        ])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        assert commands == ["index", "run"]

        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        out = capsys.readouterr().out
        printed = re.findall(r"^ +(bm25(?:\+\w+)?)  ((?: +\S+)+)$", out, re.MULTILINE)
        predictors = re.search(r"^ +pipeline((?: +\w+)+)$", out, re.MULTILINE).group(1).split()
        assert len(predictors) == 7
        assert [name for name, _ in printed] == ["bm25", "bm25+rm3", "bm25+klq"]
        for (name, cells), pipeline in zip(printed, summary["pipelines"]):
            means = pipeline["categories"]["provenance"]["mean_jsd"]
            assert cells.split() == [f"{means[p]:.4f}" for p in predictors], name


class TestAnalyzeExposure:
    def test_k3_m1_rows(self, workspace):
        out_dir = workspace / "exp"
        code = main([
            "analyze-exposure", "--k", "3", "--m", "1",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        with open(out_dir / "histogram.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        values = sorted(float(r["bin_low"]) for r in rows)
        assert values == pytest.approx([0.5, 1 / math.log2(3), 1.0])
        with open(out_dir / "orderings.csv", encoding="utf-8") as fh:
            orders = list(csv.DictReader(fh))
        assert orders[2]["exact_orderings"] == "6"

    def test_m0_single_zero_row(self, workspace):
        out_dir = workspace / "exp0"
        assert main(["analyze-exposure", "--k", "4", "--m", "0", "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "histogram.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["bin_low"]) == 0.0
        assert float(rows[0]["count"]) == 1.0

    @pytest.mark.parametrize(
        "argv, mode",
        [
            (["--k", "12", "--m", "1,2", "--samples", "200"], "exact"),
            # C(30, 10) is past the script's exact limit, so every m is sampled
            (["--k", "30", "--m", "1,10", "--samples", "200"], "sampled"),
        ],
    )
    def test_script_prints_the_histogram_it_wrote(self, workspace, capsys, monkeypatch, argv, mode):
        calls = []
        real = qexp.exposure.achievable_exposure

        def counted(k, m, mode="exact", **kwargs):
            calls.append((m, mode))
            return real(k, m, mode, **kwargs)

        monkeypatch.setattr(qexp.exposure, "achievable_exposure", counted)
        monkeypatch.setattr(qexp.cli, "achievable_exposure", counted)
        out_dir = workspace / "exp"
        script = Path(__file__).resolve().parents[1] / "scripts" / "exposure_analysis.py"
        monkeypatch.setattr(sys, "argv", [str(script), *argv, "--out-dir", str(out_dir)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        m_values = [int(v) for v in argv[3].split(",")]
        assert calls == [(m, mode) for m in m_values]  # one histogram per m

        with open(out_dir / "histogram.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        out = capsys.readouterr().out
        assert f"k={argv[1]} [{mode}]\n" in out
        printed = re.findall(
            r"m=\s*(\d+) exposure range \[(\S+), (\S+)\] over (\S+) position subsets", out
        )
        assert [int(m) for m, *_ in printed] == m_values
        for m, low, high, total in printed:
            bins = [r for r in rows if r["m"] == m]
            assert low == f"{float(bins[0]['bin_low']):.4f}"
            assert high == f"{float(bins[-1]['bin_high']):.4f}"
            assert total == f"{sum(float(r['count']) for r in bins):.6g}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mode", "sampled", "--samples", "0"], "samples must be >= 1"),
            (["--mode", "sampled", "--samples", "-5"], "samples must be >= 1"),
            (["--k", "10", "--m", "2,2"], "--m repeats 2"),
        ],
    )
    def test_bad_samples_or_repeated_m_exit_1_without_output(
        self, workspace, capsys, argv, message
    ):
        out_dir = workspace / "exp"
        assert main(["analyze-exposure", *argv, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_default_m_is_0_to_4(self, workspace):
        out_dir = workspace / "exp"
        assert main(["analyze-exposure", "--k", "8", "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "histogram.csv", encoding="utf-8") as fh:
            assert sorted({int(r["m"]) for r in csv.DictReader(fh)}) == [0, 1, 2, 3, 4]

    def test_defaults_fit_the_subset_budget(self):
        # read from the parser: a bare run walks C(100, 4) subsets, too many for a test
        args = qexp.cli.build_parser().parse_args(["analyze-exposure"])
        assert args.mode == "exact"
        assert max(math.comb(args.k, m) for m in args.m) <= qexp.exposure.DEFAULT_SUBSET_BUDGET

    @pytest.mark.parametrize("m", ["", " , "])
    def test_empty_m_exits_1_without_output(self, workspace, capsys, m):
        out_dir = workspace / "exp"
        assert main(["analyze-exposure", "--k", "8", "--m", m, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == "error: at least one m is required\n"
        assert not out_dir.exists()

    def test_non_integer_m_is_a_usage_error_naming_the_option(self, workspace, capsys):
        out_dir = workspace / "exp"
        assert main(["analyze-exposure", "--k", "8", "--m", "1,x", "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qexp analyze-exposure")
        assert err.endswith("error: argument --m: expected comma-separated integers, got '1,x'\n")
        assert not out_dir.exists()

    def test_over_budget_m_exits_1_before_any_subset_is_walked(
        self, workspace, capsys, monkeypatch
    ):
        walks = []
        real = qexp.exposure._subset_sums

        def counted(weights, m):
            walks.append(m)
            return real(weights, m)

        monkeypatch.setattr(qexp.exposure, "_subset_sums", counted)
        out_dir = workspace / "exp"
        # C(100, 4) fits the budget and C(100, 5) does not
        code = main(["analyze-exposure", "--k", "100", "--m", "4,5", "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: exact mode needs C(100,5)=75287520 subset evaluations, "
            "over the budget of 5000000; use sampled mode\n"
        )
        assert walks == []
        assert not (out_dir / "histogram.csv").exists()

    def test_sampled_m_past_the_largest_float_exits_1_before_any_draw(
        self, workspace, capsys, monkeypatch
    ):
        draws = []
        real = qexp.exposure._sampled_sums

        def counted(weights, m, samples, seed):
            draws.append(m)
            return real(weights, m, samples, seed)

        monkeypatch.setattr(qexp.exposure, "_sampled_sums", counted)
        out_dir = workspace / "exp"
        # C(1030, 499) fits a float and C(1030, 500) does not
        code = main([
            "analyze-exposure", "--k", "1030", "--m", "499,500", "--mode", "sampled",
            "--samples", "10", "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: sampled mode scales by C(1030,500), which exceeds the largest float "
            f"{sys.float_info.max!r}\n"
        )
        assert draws == []
        assert not (out_dir / "histogram.csv").exists()

    def test_outputs_do_not_depend_on_the_python_version(self, tmp_path, monkeypatch):
        # the builtin sum of Python 3.12 and later compensates float rounding;
        # patched into the module that adds exposure, it stands in for 3.12
        def outputs(name):
            blobs = {}
            for mode, k, m in (
                ("exact", "40", "0,1,2,3,4,38,39,40"),
                ("sampled", "60", "10,25,50"),
            ):
                out_dir = tmp_path / name / mode
                assert main([
                    "analyze-exposure", "--k", k, "--m", m, "--mode", mode,
                    "--samples", "2000", "--out-dir", str(out_dir),
                ]) == 0
                blobs[mode] = (out_dir / "histogram.csv").read_bytes()
            return blobs

        plain = outputs("plain")
        monkeypatch.setattr(qexp.exposure, "sum", compensated_sum, raising=False)
        assert outputs("compensated") == plain

    def test_budget_error_suggests_sampling(self, workspace, capsys):
        code = main([
            "analyze-exposure", "--k", "100", "--m", "50", "--mode", "exact",
            "--out-dir", str(workspace / "never"),
        ])
        assert code == 1
        assert "sampled" in capsys.readouterr().err


class TestOutputBytes:
    # sha256 prefixes of every text file the CLI and the synthetic script
    # write, on a small planted corpus; index.qx is left out, as its gzip
    # bytes vary across zlib builds
    DIGESTS = {
        "exact/histogram.csv": "915b73b025d1c8fc",
        "exact/orderings.csv": "742297bee05e3746",
        "grid/config.json": "2bea77f8bb59241d",
        "grid/cv.csv": "f3debc273a71383e",
        "grid/jsd.csv": "7e1c7d40603c2c1b",
        "grid/summary.json": "2bcb2dd54ab8115c",
        "klq.jsonl": "a56d492e9cab5b8b",
        "pred.jsonl": "45dc07885060758c",
        "rm3.jsonl": "65c6c3d73515e68b",
        "sampled/histogram.csv": "03b25046abd61652",
        "sampled/orderings.csv": "69f9c6bfe5f5cb09",
        "syn/categories.json": "eeae86f0e241d592",
        "syn/config.json": "5b754e9590b25af0",
        "syn/corpus.jsonl": "d9386cff414646c2",
        "syn/cv.csv": "7750cf92a174f43b",
        "syn/jsd.csv": "050b4b163660eeed",
        "syn/queries.tsv": "98cd0b0172fa5929",
        "syn/summary.json": "973eddc571bfba19",
        "tfidf.trec": "e77978f4db0ad203",
    }

    def test_every_output_keeps_its_bytes(self, tmp_path, monkeypatch):
        # relative paths, so that config.json does not name the temporary directory
        monkeypatch.chdir(tmp_path)
        script = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_experiment.py"
        monkeypatch.setattr(sys, "argv", [
            str(script), "--docs-per-group", "20", "--num-queries", "6", "--k", "20",
            "--out-dir", "syn",
        ])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        # a query of unseen words retrieves nothing, and a stopword-only one fails
        queries = Path("syn/queries.tsv").read_text(encoding="utf-8") + "qoov\tzzz999\n"
        Path("oov.tsv").write_text(queries, encoding="utf-8")
        Path("grid.tsv").write_text(queries + "qbad\tthe of and\n", encoding="utf-8")
        inputs = {"syn/index.qx", "oov.tsv", "grid.tsv"}
        source = ["--index", "syn/index.qx", "--queries", "oov.tsv", "--k", "20"]
        commands = [
            ["predict", *source, "--predictors", ",".join(PREDICTORS), "--out", "pred.jsonl"],
            ["expand", *source, "--method", "rm3", "--out", "rm3.jsonl"],
            ["expand", *source, "--method", "klq", "--out", "klq.jsonl"],
            ["rank", *source, "--model", "tfidf", "--out", "tfidf.trec"],
            ["run", "--index", "syn/index.qx", "--queries", "grid.tsv", "--k", "20",
             "--rankers", "bm25,tfidf", "--expanders", "none,rm3,klq",
             "--predictors", ",".join(PREDICTORS), "--out-dir", "grid"],
            ["analyze-exposure", "--k", "40", "--m", "0,1,2,3,4,38,39,40",
             "--out-dir", "exact"],
            ["analyze-exposure", "--k", "60", "--m", "10,25,50", "--mode", "sampled",
             "--samples", "2000", "--seed", "3", "--out-dir", "sampled"],
        ]
        for argv in commands:
            assert main(argv) == (2 if argv[0] == "run" else 0), argv

        digests = {
            name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in tmp_path.rglob("*")
            if p.is_file() and (name := str(p.relative_to(tmp_path))) not in inputs
        }
        assert digests == self.DIGESTS
