import csv
import json
import math

import pytest

from qexp.cli import main
from qexp.corpus import INDEX_MAGIC, CollectionIndex
from qexp.exposure import position_exposure


@pytest.fixture
def workspace(tmp_path):
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
    corpus.write_text("\n".join(lines) + "\n")

    categories = tmp_path / "categories.json"
    categories.write_text('[{"name": "c", "groups": ["A", "B"]}]')

    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tt000 t001\nq2\tt004 t005\nq3\tt000 t005\n")
    return tmp_path


class TestIndexCommand:
    def test_build_and_summary(self, workspace, capsys):
        out = workspace / "index.qx"
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
        bad.write_text('{"doc_id": "d1", "text": "t000", "labels": {"c": "A"}}\n{broken\n')
        code = main([
            "index", "--corpus", str(bad),
            "--categories", str(workspace / "categories.json"),
            "--out", str(workspace / "x.qx"),
        ])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_relabeling_changes_only_group_stats(self, workspace):
        relabeled = workspace / "relabel.jsonl"
        out_lines = []
        for line in (workspace / "corpus.jsonl").read_text().splitlines():
            obj = json.loads(line)
            obj["labels"]["c"] = "B" if obj["labels"]["c"] == "A" else "A"
            out_lines.append(json.dumps(obj))
        relabeled.write_text("\n".join(out_lines) + "\n")

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
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--categories", str(workspace / "categories.json"), "--out", str(path)]) == 0
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


class TestRankAndExpand:
    def test_rank_writes_run_file(self, workspace):
        out = workspace / "run.trec"
        code = main([
            "rank", "--corpus", str(workspace / "corpus.jsonl"),
            "--categories", str(workspace / "categories.json"),
            "--queries", str(workspace / "queries.tsv"),
            "--model", "bm25", "--k", "5", "--out", str(out),
        ])
        assert code == 0
        for line in out.read_text().splitlines():
            assert len(line.split()) == 6

    def test_expand_writes_jsonl(self, workspace):
        out = workspace / "expanded.jsonl"
        code = main([
            "expand", "--corpus", str(workspace / "corpus.jsonl"),
            "--categories", str(workspace / "categories.json"),
            "--queries", str(workspace / "queries.tsv"),
            "--method", "rm3", "--k", "5", "--out", str(out),
        ])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["query_id"] for r in rows} == {"q1", "q2", "q3"}
        for r in rows:
            assert set(r) == {"query_id", "terms", "weights", "expanded"}
            assert len(r["terms"]) == len(r["weights"])


class TestPredictCommand:
    def test_predictions_jsonl(self, workspace):
        out = workspace / "pred.jsonl"
        code = main([
            "predict", "--corpus", str(workspace / "corpus.jsonl"),
            "--categories", str(workspace / "categories.json"),
            "--queries", str(workspace / "queries.tsv"),
            "--predictors", "gep,avidf", "--k", "5", "--out", str(out),
        ])
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 3 * 1 * 2
        for r in rows:
            assert r["groups"] == ["A", "B"]
            assert sum(r["distribution"]) == pytest.approx(1.0)


class TestRunCommand:
    def _run(self, workspace, out_dir, extra=()):
        return main([
            "run", "--corpus", str(workspace / "corpus.jsonl"),
            "--categories", str(workspace / "categories.json"),
            "--queries", str(workspace / "queries.tsv"),
            "--rankers", "bm25", "--expanders", "none",
            "--predictors", "gep,scs,avidf,avictf,avpmi,cori",
            "--k", "5", "--out-dir", str(out_dir), *extra,
        ])

    def test_row_count_contract(self, workspace):
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir) == 0
        with open(out_dir / "jsd.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 1 * 6  # queries x categories x predictors
        assert (out_dir / "config.json").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["pipelines"][0]["categories"]["c"]["mean_jsd"]["gep"] >= 0

    def test_determinism_byte_identical(self, workspace):
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir, ("--seed", "7")) == 0
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("jsd.csv", "cv.csv", "summary.json", "config.json")
        }
        assert self._run(workspace, out_dir, ("--seed", "7")) == 0
        for name, blob in first.items():
            assert (out_dir / name).read_bytes() == blob, name

    def test_partial_failure_exit_code(self, workspace):
        queries = workspace / "queries.tsv"
        queries.write_text(queries.read_text() + "qbad\tthe of and\n")
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir) == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["failures"][0]["query_id"] == "qbad"

    def test_validation_error_exit_code(self, workspace, capsys):
        code = main([
            "run", "--corpus", str(workspace / "missing.jsonl"),
            "--categories", str(workspace / "categories.json"),
            "--queries", str(workspace / "queries.tsv"),
            "--out-dir", str(workspace / "out"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_duplicate_query_id_exits_1(self, workspace, capsys):
        # predictions are cached per query id, so a repeat must not reach the run
        queries = workspace / "queries.tsv"
        queries.write_text("q1\tt000\nq1\tt002\n")
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2" in err and "'q1'" in err
        assert not (out_dir / "jsd.csv").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--reference", "gepp"), "unknown reference 'gepp'"),
            # with one predictor no t-test runs, so nothing later would catch m
            (("--predictors", "gep", "--comparisons", "0"), "comparisons must be >= 1"),
            (("--predictors", "gep", "--comparisons", "-3"), "comparisons must be >= 1"),
        ],
    )
    def test_bad_run_option_exits_1_before_ranking(self, workspace, capsys, extra, message):
        out_dir = workspace / "out"
        assert self._run(workspace, out_dir, extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out_dir.exists()

    def _run_file_run(self, workspace, run, out_dir):
        return main([
            "run", "--corpus", str(workspace / "corpus.jsonl"),
            "--categories", str(workspace / "categories.json"),
            "--queries", str(workspace / "queries.tsv"), "--rankers", "",
            "--run-file", str(run), "--expanders", "none",
            "--predictors", "uniform", "--k", "5", "--out-dir", str(out_dir),
        ])

    def test_bad_run_file_ranking_fails_only_its_query(self, workspace):
        # q1's ranks disagree with its scores, q2 repeats a doc, q3 is valid
        run = workspace / "ext.trec"
        run.write_text(
            "q1 Q0 d00 1 1.0 ext\n"
            "q1 Q0 d01 2 2.0 ext\n"
            "q2 Q0 d05 1 2.0 ext\n"
            "q2 Q0 d05 2 1.0 ext\n"
            "q3 Q0 d00 1 2.0 ext\n"
            "q3 Q0 d05 2 1.0 ext\n"
        )
        out_dir = workspace / "out"
        assert self._run_file_run(workspace, run, out_dir) == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        failures = {f["query_id"]: f for f in summary["failures"]}
        assert set(failures) == {"q1", "q2"}
        for qid, failure in failures.items():
            assert failure["stage"] == "ranking"
            assert failure["error"].startswith(f"{run}: query {qid!r}: ")
        with open(out_dir / "jsd.csv") as fh:
            assert {r["query_id"] for r in csv.DictReader(fh)} == {"q3"}

    @pytest.mark.parametrize(
        "line, message",
        [("q1 Q0 d00 1 5.0\n", "expected 6"), ("q1 Q0 d00 one 5.0 ext\n", "bad rank or score")],
    )
    def test_malformed_run_file_line_exits_1(self, workspace, capsys, line, message):
        run = workspace / "ext.trec"
        run.write_text("q1 Q0 d01 1 6.0 ext\n" + line)
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
            "q1 Q0 d02 5 1.0 ext\n"
        )
        queries = workspace / "one.tsv"
        queries.write_text("q1\tt000 t001\n")
        out_dir = workspace / "out"
        code = main([
            "run", "--corpus", str(workspace / "corpus.jsonl"),
            "--categories", str(workspace / "categories.json"),
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
        with open(out_dir / "cv.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["cv_percent"]) == pytest.approx(sigma / mu * 100, abs=1e-9)


class TestAnalyzeExposure:
    def test_k3_m1_rows(self, workspace):
        out_dir = workspace / "exp"
        code = main([
            "analyze-exposure", "--k", "3", "--m", "1",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        with open(out_dir / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        values = sorted(float(r["bin_low"]) for r in rows)
        assert values == pytest.approx([0.5, 1 / math.log2(3), 1.0])
        with open(out_dir / "orderings.csv") as fh:
            orders = list(csv.DictReader(fh))
        assert orders[2]["exact_orderings"] == "6"

    def test_m0_single_zero_row(self, workspace):
        out_dir = workspace / "exp0"
        assert main(["analyze-exposure", "--k", "4", "--m", "0", "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["bin_low"]) == 0.0
        assert float(rows[0]["count"]) == 1.0

    def test_budget_error_suggests_sampling(self, workspace, capsys):
        code = main([
            "analyze-exposure", "--k", "100", "--m", "50", "--mode", "exact",
            "--out-dir", str(workspace / "never"),
        ])
        assert code == 1
        assert "sampled" in capsys.readouterr().err
