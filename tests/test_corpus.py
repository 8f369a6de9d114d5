import contextlib
import gzip
import json
import os
import random
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qexp.text
from qexp.corpus import (
    Category,
    CollectionIndex,
    INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
    CorpusError,
    Document,
    TermStats,
    build_index,
    load_categories_json,
    load_corpus_jsonl,
    read_lines,
    save_categories_json,
    save_corpus_jsonl,
)
from qexp.evaluation import ModelRanker, QueryExpander, run_experiment
from qexp.expansion import EXPANDERS
from qexp.predictors import PREDICTORS, make_predictors
from qexp.retrieval import RANKERS, Query
from qexp.text import STOPWORDS, stem_memo, tokenize

from conftest import random_labeled_corpus, stable_vocab
from oracles import oracle_tokenize


def index_contents(idx):
    """Everything an index holds, each part in the index's own order."""
    return (
        [(c.name, c.groups) for c in idx.categories],
        [
            (d, idx.doc_length(d), [idx.doc_groups(c.name)[d] for c in idx.categories])
            for d in idx.doc_ids
        ],
        [
            (t, stats.df, stats.cf, list(stats.postings.items()))
            for t, stats in ((t, idx.term_stats(t)) for t in idx.vocabulary)
        ],
    )


def unordered_contents(idx):
    """index_contents with the terms and each posting list in sorted order."""
    categories, docs, terms = index_contents(idx)
    return categories, docs, sorted((t, df, cf, sorted(p)) for t, df, cf, p in terms)


def report_files(index, queries, directory):
    """jsd.csv, cv.csv and summary.json of every ranker and expander on index."""
    report = run_experiment(
        index, queries, None, [ModelRanker(name) for name in RANKERS],
        [None, *(QueryExpander(name) for name in EXPANDERS)],
        make_predictors(PREDICTORS, 3), 5,
    )
    directory.mkdir()
    report.write_jsd_csv(directory / "jsd.csv")
    report.write_cv_csv(directory / "cv.csv")
    report.write_summary_json(directory / "summary.json")
    return [(directory / name).read_bytes() for name in ("jsd.csv", "cv.csv", "summary.json")]


class TestBuildIndex:
    def test_collection_statistics(self, tiny_index):
        assert tiny_index.num_docs == 4
        assert tiny_index.total_tokens == 12
        assert tiny_index.avg_doc_len == pytest.approx(3.0)
        stats = tiny_index.term_stats("t000")
        assert stats.df == 3
        assert stats.cf == 4
        assert stats.postings == {"d1": 2, "d2": 1, "d3": 1}

    def test_single_doc_counts(self):
        idx = build_index(
            [Document("d1", "t000 t000 t001", {"c": "g"})],
            [Category("c", ("g",))],
        )
        assert idx.term_stats("t000").cf == 2
        assert idx.term_stats("t000").df == 1
        assert idx.total_tokens == 3

    def test_term_stats_built_once_per_term(self, tiny_index):
        stats = tiny_index.term_stats("t000")
        assert tiny_index.term_stats("t000") is stats
        assert stats == TermStats(3, 4, {"d1": 2, "d2": 1, "d3": 1})

    def test_unindexed_term_is_not_added(self, tiny_index):
        vocabulary = set(tiny_index.vocabulary)
        for _ in range(2):
            stats = tiny_index.term_stats("zz9")
            assert (stats.df, stats.cf, dict(stats.postings)) == (0, 0, {})
        assert set(tiny_index.vocabulary) == vocabulary

    def test_group_df_partition(self, tiny_index):
        split = tiny_index.group_postings("t000", "geo")
        assert len(split["east"]) + len(split["west"]) == tiny_index.term_stats("t000").df == 3

    def test_group_stats_fixture_counts(self, tiny_index):
        east = tiny_index.group_postings("t000", "geo")["east"]
        assert east == {"d1": 2, "d3": 1}  # df 2, cf 3
        assert list(east) == ["d1", "d3"]  # build order

    def test_absent_term_in_group(self, tiny_index):
        assert tiny_index.group_postings("t004", "geo") == {"east": {}, "west": {"d4": 2}}
        assert tiny_index.group_postings("zz9", "geo") == {"east": {}, "west": {}}

    def test_unknown_group_rejected(self, tiny_index):
        with pytest.raises(KeyError, match="atlantis"):
            tiny_index.group_doc_count("geo", "atlantis")
        with pytest.raises(KeyError, match="unknown category 'nope'"):
            tiny_index.group_token_counts("nope")
        with pytest.raises(KeyError, match="nope"):
            tiny_index.group_postings("t000", "nope")

    def test_empty_corpus(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            build_index([], [Category("c", ("g",))])

    @pytest.mark.parametrize(
        "categories, message",
        [
            ([], "no categories"),
            ([Category("c", ("g",)), Category("c", ("h",))], "the category list repeats c"),
        ],
    )
    def test_bad_category_list(self, categories, message):
        with pytest.raises(CorpusError) as exc_info:
            build_index([Document("d1", "t000", {"c": "g"})], categories)
        assert str(exc_info.value) == message

    def test_duplicate_doc_id(self):
        docs = [
            Document("d1", "t000", {"c": "g"}),
            Document("d1", "t001", {"c": "g"}),
        ]
        with pytest.raises(CorpusError, match="d1"):
            build_index(docs, [Category("c", ("g",))])

    @pytest.mark.parametrize("doc_id", ["d 1", "", " ", "d1\t", "\nd1"])
    def test_doc_id_a_run_file_cannot_carry_rejected(self, doc_id):
        docs = [Document("d0", "t000", {"c": "g"}), Document(doc_id, "t001", {"c": "g"})]
        with pytest.raises(CorpusError) as exc_info:
            build_index(docs, [Category("c", ("g",))])
        assert str(exc_info.value) == f"doc_id {doc_id!r} is empty or contains whitespace"

    def test_missing_label(self):
        docs = [Document("d9", "t000", {})]
        with pytest.raises(CorpusError, match="d9"):
            build_index(docs, [Category("c", ("g",))])

    def test_missing_label_falls_into_unknown_group(self):
        docs = [Document("d9", "t000", {})]
        idx = build_index(docs, [Category("c", ("Unknown", "g"))])
        assert idx.doc_groups("c")["d9"] == "Unknown"

    def test_unknown_group_label(self):
        docs = [Document("d9", "t000", {"c": "atlantis"})]
        with pytest.raises(CorpusError, match="atlantis"):
            build_index(docs, [Category("c", ("g",))])

    def test_group_sizes(self, tiny_index):
        assert tiny_index.group_doc_counts("geo") == {"east": 2, "west": 2}
        assert tiny_index.group_token_counts("geo") == {"east": 7, "west": 5}
        assert tiny_index.group_doc_count("geo", "west") == 2


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_partition_property(self, seed):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_categories=2)
        idx = build_index(docs, cats)
        for term in idx.vocabulary:
            postings = idx.term_stats(term).postings
            for cat in cats:
                split = idx.group_postings(term, cat.name)
                assert list(split) == list(cat.groups)
                for group, plist in split.items():
                    assert all(idx.doc_groups(cat.name)[d] == group for d in plist)
                    assert list(plist) == [d for d in postings if d in plist]
                assert sum(len(p) for p in split.values()) == len(postings)
                assert {d: tf for p in split.values() for d, tf in p.items()} == postings

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_group_doc_counts_partition(self, seed):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng)
        idx = build_index(docs, cats)
        for cat in cats:
            counts = idx.group_doc_counts(cat.name)
            assert list(counts) == list(cat.groups)
            assert sum(counts.values()) == idx.num_docs

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_doc_groups_table(self, seed):
        docs, cats = random_labeled_corpus(random.Random(seed), num_categories=2)
        idx = build_index(docs, cats)
        for _ in range(2):  # an unknown category stores no table
            with pytest.raises(KeyError) as error:
                idx.doc_groups("nope")
            assert error.value.args == ("unknown category 'nope'",)
        for cat in cats:
            table = idx.doc_groups(cat.name)
            assert list(table.items()) == [(d.doc_id, d.labels[cat.name]) for d in docs]
            assert idx.doc_groups(cat.name) is table  # built once per category

    def test_rebuild_determinism(self):
        rng = random.Random(3)
        docs, cats = random_labeled_corpus(rng, num_docs=20)
        a = build_index(docs, cats)
        b = build_index(docs, cats)
        assert a.doc_ids == b.doc_ids
        assert set(a.vocabulary) == set(b.vocabulary)
        for term in a.vocabulary:
            assert a.term_stats(term) == b.term_stats(term)


# words the stemmer rewrites, stopwords, case and punctuation, repeated across docs
_WORDS = ("running", "runs", "Runner", "connection", "connected,", "the", "and",
          "ponies", "caresses", "relational", "happy", "t000", "GENERALIZATIONS.")
_GEO = Category("geo", ("east", "west"))


@pytest.fixture
def stem_calls(monkeypatch):
    """Counts the stemmer's calls per word."""
    calls = Counter()
    real = qexp.text.stem

    def counted(word):
        calls[word] += 1
        return real(word)

    monkeypatch.setattr(qexp.text, "stem", counted)
    return calls


class TestStemMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=6)), max_size=15),
        min_size=1, max_size=8,
    ))
    def test_build_equals_per_document_tokenize(self, doc_words):
        docs = [
            Document(f"d{i}", " ".join(words), {"geo": _GEO.groups[i % 2]})
            for i, words in enumerate(doc_words)
        ]
        memoized = build_index(docs, [_GEO])
        assert index_contents(memoized) == index_contents(
            build_index(docs, [_GEO], tokenizer=oracle_tokenize)
        )

    def test_each_distinct_word_stemmed_once_per_build(self, stem_calls):
        docs = [Document(f"d{i}", "running runs running", {"geo": "east"}) for i in range(3)]
        build_index(docs, [_GEO])
        assert stem_calls == {"running": 1, "runs": 1}
        build_index(docs, [_GEO])  # a new build starts from an empty memo
        assert stem_calls == {"running": 2, "runs": 2}

    @pytest.mark.parametrize(
        "bad_doc",
        [
            None,
            Document("d0", "runs", {"geo": "east"}),
            Document("d1", "runs", {"geo": "north"}),
        ],
        ids=["returns", "duplicate-id", "unknown-group"],
    )
    def test_no_memo_outlives_its_build(self, stem_calls, bad_doc):
        docs = [Document("d0", "running", {"geo": "east"})]
        if bad_doc is None:
            build_index(docs, [_GEO])
        else:  # fails partway, after tokenizing the first document
            with pytest.raises(CorpusError):
                build_index([*docs, bad_doc, Document("d2", "running", {"geo": "west"})], [_GEO])
        stem_calls.clear()
        assert tokenize("running") == tokenize("running") == ["run"]
        assert stem_calls == {"running": 2}

    @pytest.mark.parametrize("in_block", [False, True], ids=["per-call", "in-block"])
    def test_stopwords_are_dropped_by_raw_word(self, in_block):
        # "ase" stems to the stopword "as" and is kept: the filter reads the
        # raw word; the second call reads every word from a block's memo
        with stem_memo() if in_block else contextlib.nullcontext():
            assert tokenize("as ase the running") == ["as", "run"]
            assert tokenize("as ase the running") == ["as", "run"]

    def test_stopwords_never_reach_the_stemmer(self, stem_calls):
        with stem_memo():
            tokenize("the as ase the running")
            tokenize("as the of running")
        assert stem_calls == {"ase": 1, "running": 1}

    def test_memo_is_not_shared_with_another_thread(self, stem_calls):
        with stem_memo():
            tokenize("running")
            worker = threading.Thread(target=lambda: [tokenize("running") for _ in range(2)])
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            tokenize("running")
        assert stem_calls == {"running": 3}  # once in this block, twice in the thread


class TestForwardIndex:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_doc_terms_inverts_the_postings(self, tmp_path_factory, seed):
        docs, cats = random_labeled_corpus(random.Random(seed), num_docs=15)
        built = build_index(docs, cats)
        path = tmp_path_factory.mktemp("fwd") / "index.qx"
        built.save(path)
        for idx in (built, CollectionIndex.load(path)):
            with pytest.raises(KeyError, match="unknown document 'nope'"):
                idx.doc_terms("nope")  # before the forward index exists
            for d in idx.doc_ids:
                expected = [
                    (t, idx.term_stats(t).postings[d])
                    for t in sorted(idx.vocabulary) if d in idx.term_stats(t).postings
                ]
                assert list(idx.doc_terms(d).items()) == expected
            with pytest.raises(KeyError, match="unknown document 'nope'"):
                idx.doc_terms("nope")


class TestReadLines:
    def test_lines_end_as_in_text_mode(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("a\r\nb\rc\nd\u2028e\x85f".encode())
        assert list(read_lines(path)) == ["a\n", "b\n", "c\n", "d\u2028e\x85f"]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_bad_byte_past_the_first_block_names_its_line(self, tmp_path, end):
        # 24 KB: text mode decodes 8 KB at a time, so its line count is behind
        lines = [b"%059d" % i for i in range(400)]
        lines[300] = lines[300][:30] + b"\xff" + lines[300][31:]
        path = tmp_path / "f.txt"
        path.write_bytes(end.join(lines))
        with pytest.raises(CorpusError) as raised:
            list(read_lines(path))
        assert str(raised.value) == f"{path}: line 301: not UTF-8 (invalid start byte)"


class TestPersistence:
    def test_round_trip(self, tiny_index, tmp_path):
        path = tmp_path / "index.qx"
        tiny_index.save(path)
        loaded = CollectionIndex.load(path)
        assert loaded.num_docs == tiny_index.num_docs
        assert loaded.total_tokens == tiny_index.total_tokens
        assert set(loaded.vocabulary) == set(tiny_index.vocabulary)
        for term in tiny_index.vocabulary:
            assert loaded.term_stats(term) == tiny_index.term_stats(term)
            assert loaded.group_postings(term, "geo") == tiny_index.group_postings(term, "geo")

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_byte_checked(self, tiny_index, version, tmp_path):
        # a well-formed index as format version 1 wrote it: each doc with its length
        path = tmp_path / "index.qx"
        tiny_index.save(path)
        payload = json.loads(gzip.decompress(path.read_bytes()[len(INDEX_MAGIC) + 1 :]))
        for doc in payload["docs"]:
            doc["length"] = tiny_index.doc_length(doc["id"])
        path.write_bytes(
            INDEX_MAGIC + bytes([version]) + gzip.compress(json.dumps(payload).encode())
        )
        with pytest.raises(CorpusError) as raised:
            CollectionIndex.load(path)
        assert str(raised.value) == f"{path}: unsupported index format version {version}"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qx"
        path.write_bytes(b"not an index")
        with pytest.raises(CorpusError, match="magic"):
            CollectionIndex.load(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"plain bytes", "corrupt index"),
            pytest.param(gzip.compress(b"{oops"), "corrupt index", id="bad-json"),
            pytest.param(gzip.compress(b"[1, 2]"), "corrupt index", id="not-an-object"),
            pytest.param(
                gzip.compress(b'{"categories": [], "postings": {}}'),
                "missing field 'docs'",
                id="missing-docs",
            ),
            pytest.param(
                gzip.compress(b'{"categories": [], "docs": [], "postings": {}}'),
                "no documents",
                id="no-documents",
            ),
            pytest.param(
                gzip.compress(b"[" * 100_000), "JSON nested too deeply",
                id="nested-too-deeply",
            ),
        ],
    )
    def test_undecodable_body(self, tmp_path, body, message):
        path = tmp_path / "index.qx"
        path.write_bytes(INDEX_MAGIC + bytes([INDEX_FORMAT_VERSION]) + body)
        with pytest.raises(CorpusError, match=message):
            CollectionIndex.load(path)

    @pytest.mark.parametrize(
        "doc, changes, message",
        [
            ({"labels": {"geo": "north"}}, {}, "'d1' has no group of category 'geo'"),
            ({"labels": {}}, {}, "'d1' has no group of category 'geo'"),
            ({}, {"postings": {"t000": {"d9": 1}}}, "unknown document 'd9'"),
            *[
                ({}, {"postings": {"t000": {"d1": tf}}},
                 f"term 't000' has tf {tf!r} for document 'd1', not an int >= 1")
                for tf in ("1", -4, 0, 1.5, 1.0, True, None)
            ],
            # ids and terms build_index could not have written
            *[
                ({"id": doc_id}, {"postings": {"t000": {doc_id: 1}}},
                 f"doc_id {doc_id!r} is empty or contains whitespace")
                for doc_id in ("a b", "", " ", "d1\t")
            ],
            *[
                ({"id": doc_id}, {"postings": {}}, f"doc_id {doc_id!r} is not a string")
                for doc_id in (5, None, True)
            ],
            ({}, {"postings": {"t000": {"d1": 1}, "ghost": {}}}, "term 'ghost' has no postings"),
            ({}, {"categories": []}, "no categories"),
            ({}, {"categories": [{"name": "geo", "groups": ["east", "west"]}] * 2},
             "the category list repeats geo"),
            # categories are read as a categories file's are, labels as build_index wrote them
            ({"labels": {"geo": 1}}, {"categories": [{"name": "geo", "groups": [1, 2.5]}]},
             "category 'geo': groups must be a JSON list of strings"),
            ({"labels": {"geo": "e"}}, {"categories": [{"name": "geo", "groups": "ew"}]},
             "category 'geo': groups must be a JSON list of strings"),
            ({"labels": {"geo": "e"}}, {"categories": [{"name": "geo", "groups": {"e": 1, "w": 2}}]},
             "category 'geo': groups must be a JSON list of strings"),
            ({"labels": {"7": "east"}}, {"categories": [{"name": 7, "groups": ["east", "west"]}]},
             "category name 7 is not a JSON string"),
            ({"labels": [["geo", "east"]]}, {}, "document 'd1': labels must be a JSON object"),
            ({"labels": {"geo": "east", "extra": "zzz"}}, {},
             "document 'd1' has a label of unknown category 'extra'"),
            # fields of the wrong JSON type; changes that are no object replace the payload
            ({}, [], "the payload must be a JSON object"),
            ({}, None, "the payload must be a JSON object"),
            ({}, {"docs": 5}, "docs must be a JSON list of objects"),
            ({}, {"docs": [5]}, "docs must be a JSON list of objects"),
            ({}, {"postings": []}, "postings must be a JSON object of objects"),
            ({}, {"postings": {"t000": 5}}, "term 't000': postings must be a JSON object"),
            ({}, {"categories": 5}, "categories must be a JSON list"),
            ({"id": ["x"]}, {}, "doc_id ['x'] is not a string"),
            # changes given as bytes are the payload's bytes
            ({}, b'{"docs": [{"id": "d\xff1"}]}', "(payload is not UTF-8)"),
            ({}, b'{"docs": [' + b"1" * 5_000 + b"]}", "(integer too long)"),
        ],
    )
    def test_inconsistent_payload(self, tmp_path, doc, changes, message):
        payload = {
            "categories": [{"name": "geo", "groups": ["east", "west"]}],
            "docs": [{"id": "d1", "labels": {"geo": "east"}, **doc}],
            "postings": {"t000": {"d1": 1}},
            **changes,
        } if isinstance(changes, dict) else changes
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        path = tmp_path / "index.qx"
        path.write_bytes(INDEX_MAGIC + bytes([INDEX_FORMAT_VERSION]) + gzip.compress(body))
        with pytest.raises(CorpusError, match=re.escape(message)) as raised:
            CollectionIndex.load(path)
        assert str(raised.value).startswith(f"{path}: corrupt index (")

    def test_build_order_level_1_file_loads_like_a_sorted_level_6_one(self, tmp_path):
        rng = random.Random(7)
        docs, cats = random_labeled_corpus(rng, num_docs=40, vocab_size=12, num_categories=2)
        rng.shuffle(docs)
        built = build_index(docs, cats)
        new = tmp_path / "new.qx"
        built.save(new)
        header = INDEX_MAGIC + bytes([INDEX_FORMAT_VERSION])
        data = new.read_bytes()
        assert data[len(INDEX_MAGIC)] == 2
        body = gzip.decompress(data[len(header):])
        assert data == header + gzip.compress(body, compresslevel=1, mtime=0)
        payload = json.loads(body)
        assert body == json.dumps(payload, separators=(",", ":")).encode()
        # format version 2: a doc's length is not stored, its postings give it
        assert all(set(doc) == {"id", "labels"} for doc in payload["docs"])
        assert list(payload["postings"]) == list(built.vocabulary) != sorted(built.vocabulary)
        # how files were written before: sorted keys, default separators, level 6
        old = tmp_path / "old.qx"
        old.write_bytes(
            header + gzip.compress(json.dumps(payload, sort_keys=True).encode(), compresslevel=6, mtime=0)
        )
        from_old, from_new = CollectionIndex.load(old), CollectionIndex.load(new)
        assert index_contents(from_old) != index_contents(from_new)
        assert unordered_contents(from_old) == unordered_contents(from_new) == unordered_contents(built)
        vocab = stable_vocab(14)  # two terms the corpus never uses
        queries = [
            Query.from_text(" ".join(rng.choices(vocab, k=rng.randint(1, 4))), query_id=f"q{i}")
            for i in range(8)
        ]
        assert report_files(from_old, queries, tmp_path / "old") == report_files(
            from_new, queries, tmp_path / "new"
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_load_keeps_the_build_order(self, tmp_path_factory, seed, num_categories):
        rng = random.Random(seed)
        docs, cats = random_labeled_corpus(rng, num_docs=15, num_categories=num_categories)
        rng.shuffle(docs)
        built = build_index(docs, cats)
        path = tmp_path_factory.mktemp("order") / "index.qx"
        built.save(path)
        loaded = CollectionIndex.load(path)
        assert index_contents(loaded) == index_contents(built)
        # labels are written from the per-category tables, in build and category order
        again = path.with_name("again.qx")
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["t000", "t001", "t002", "the", "of"]), max_size=6),
                st.sampled_from(["east", "west"]),
                st.sampled_from(["old", "new", "unk"]),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @example([(["the", "of"], "east", "old")])  # every document stopword-only: no postings
    def test_loaded_lengths_equal_the_built_ones(self, tmp_path_factory, rows):
        assert {"the", "of"} <= STOPWORDS
        docs = [
            Document(f"d{i}", " ".join(words), {"geo": geo, "era": era})
            for i, (words, geo, era) in enumerate(rows)
        ]
        cats = [Category("geo", ("east", "west")), Category("era", ("old", "new", "unk"))]
        built = build_index(docs, cats)
        path = tmp_path_factory.mktemp("lengths") / "index.qx"
        built.save(path)
        loaded = CollectionIndex.load(path)
        assert [(d, loaded.doc_length(d)) for d in loaded.doc_ids] == [
            (d, built.doc_length(d)) for d in built.doc_ids
        ]
        assert (loaded.total_tokens, loaded.avg_doc_len) == (built.total_tokens, built.avg_doc_len)
        for cat in cats:
            assert loaded.group_token_counts(cat.name) == built.group_token_counts(cat.name)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(min_size=1), st.lists(st.text(min_size=1), min_size=1, unique=True)),
            min_size=1,
            max_size=4,
            unique_by=lambda cat: cat[0],
        )
    )
    def test_categories_survive_both_files(self, tmp_path_factory, rows):
        cats = [Category(name, tuple(groups)) for name, groups in rows]
        tmp = tmp_path_factory.mktemp("categories")
        save_categories_json(tmp / "categories.json", cats)
        assert load_categories_json(tmp / "categories.json") == cats
        doc = Document("d1", "t000", {c.name: c.groups[-1] for c in cats})
        build_index([doc], cats).save(tmp / "index.qx")
        loaded = CollectionIndex.load(tmp / "index.qx")
        assert list(loaded.categories) == cats
        assert [loaded.doc_groups(c.name)["d1"] for c in cats] == [c.groups[-1] for c in cats]

    def test_save_is_deterministic(self, tiny_index, tmp_path):
        p1, p2 = tmp_path / "a.qx", tmp_path / "b.qx"
        tiny_index.save(p1)
        tiny_index.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_qexp_index_writes_the_same_bytes_under_any_hash_seed(self, tmp_path):
        rng = random.Random(5)
        docs, cats = random_labeled_corpus(rng, num_docs=30, vocab_size=20, num_categories=2)
        rng.shuffle(docs)
        docs.append(Document("d999", " ".join(_WORDS), {c.name: c.groups[0] for c in cats}))
        save_corpus_jsonl(tmp_path / "corpus.jsonl", docs)
        save_categories_json(tmp_path / "categories.json", cats)
        src = str(Path(qexp.text.__file__).parents[1])
        written = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"index{hash_seed}.qx"
            subprocess.run(
                [sys.executable, "-m", "qexp.cli", "index", "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--categories", str(tmp_path / "categories.json"), "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                check=True, capture_output=True, timeout=120,
            )
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestFileLoading:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "d1", "text": "t000", "labels": {"c": "g"}}\n'
            '{"doc_id": "d2", "text": "t001 t002", "labels": {"c": "g"}}\n'
        )
        docs = load_corpus_jsonl(path)
        assert [d.doc_id for d in docs] == ["d1", "d2"]

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d1", "text": "x", "labels": {}}\n{oops\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus_jsonl(path)

    def test_categories_object_or_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text('{"name": "c", "groups": ["a", "b"]}')
        assert load_categories_json(single)[0].groups == ("a", "b")
        many = tmp_path / "many.json"
        many.write_text('[{"name": "c", "groups": ["a"]}, {"name": "d", "groups": ["x"]}]')
        assert [c.name for c in load_categories_json(many)] == ["c", "d"]
