import gzip
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from qexp.corpus import (
    Category,
    CollectionIndex,
    INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
    CorpusError,
    Document,
    build_index,
    load_categories_json,
    load_corpus_jsonl,
)

from conftest import random_labeled_corpus


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
        with pytest.raises(KeyError, match="nope"):
            tiny_index.group_postings("t000", "nope")

    def test_empty_corpus(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            build_index([], [Category("c", ("g",))])

    def test_duplicate_doc_id(self):
        docs = [
            Document("d1", "t000", {"c": "g"}),
            Document("d1", "t001", {"c": "g"}),
        ]
        with pytest.raises(CorpusError, match="d1"):
            build_index(docs, [Category("c", ("g",))])

    def test_missing_label(self):
        docs = [Document("d9", "t000", {})]
        with pytest.raises(CorpusError, match="d9"):
            build_index(docs, [Category("c", ("g",))])

    def test_missing_label_falls_into_unknown_group(self):
        docs = [Document("d9", "t000", {})]
        idx = build_index(docs, [Category("c", ("Unknown", "g"))])
        assert idx.doc_group("d9", "c") == "Unknown"

    def test_unknown_group_label(self):
        docs = [Document("d9", "t000", {"c": "atlantis"})]
        with pytest.raises(CorpusError, match="atlantis"):
            build_index(docs, [Category("c", ("g",))])

    def test_group_sizes(self, tiny_index):
        assert tiny_index.group_doc_count("geo", "east") == 2
        assert tiny_index.group_doc_count("geo", "west") == 2
        assert tiny_index.group_token_count("geo", "east") == 7
        assert tiny_index.group_token_count("geo", "west") == 5


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
                    assert all(idx.doc_group(d, cat.name) == group for d in plist)
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
            assert sum(idx.group_doc_count(cat.name, g) for g in cat.groups) == idx.num_docs

    def test_rebuild_determinism(self):
        rng = random.Random(3)
        docs, cats = random_labeled_corpus(rng, num_docs=20)
        a = build_index(docs, cats)
        b = build_index(docs, cats)
        assert a.doc_ids == b.doc_ids
        assert set(a.vocabulary) == set(b.vocabulary)
        for term in a.vocabulary:
            assert a.term_stats(term) == b.term_stats(term)


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

    def test_version_byte_checked(self, tiny_index, tmp_path):
        path = tmp_path / "index.qx"
        tiny_index.save(path)
        raw = bytearray(path.read_bytes())
        raw[7] = 99  # version byte follows the 7-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(CorpusError, match="version"):
            CollectionIndex.load(path)

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
        ],
    )
    def test_undecodable_body(self, tmp_path, body, message):
        path = tmp_path / "index.qx"
        path.write_bytes(INDEX_MAGIC + bytes([INDEX_FORMAT_VERSION]) + body)
        with pytest.raises(CorpusError, match=message):
            CollectionIndex.load(path)

    @pytest.mark.parametrize(
        "labels, postings, message",
        [
            ({"geo": "north"}, {"t000": {"d1": 1}}, "'d1' has no group of category 'geo'"),
            ({}, {"t000": {"d1": 1}}, "'d1' has no group of category 'geo'"),
            ({"geo": "east"}, {"t000": {"d9": 1}}, "unknown document 'd9'"),
        ],
    )
    def test_inconsistent_payload(self, tmp_path, labels, postings, message):
        payload = {
            "categories": [{"name": "geo", "groups": ["east", "west"]}],
            "docs": [{"id": "d1", "length": 1, "labels": labels}],
            "postings": postings,
        }
        path = tmp_path / "index.qx"
        path.write_bytes(
            INDEX_MAGIC + bytes([INDEX_FORMAT_VERSION]) + gzip.compress(json.dumps(payload).encode())
        )
        with pytest.raises(CorpusError, match=message):
            CollectionIndex.load(path)

    def test_save_is_deterministic(self, tiny_index, tmp_path):
        p1, p2 = tmp_path / "a.qx", tmp_path / "b.qx"
        tiny_index.save(p1)
        tiny_index.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


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
