"""Labeled document corpus and the immutable collection index.

The index holds whole-collection postings plus, for every (category,
group) cell, the group's document and token counts. Per-group term
statistics are derived on demand by splitting a term's postings by
group label. Categories partition the corpus, so group statistics
always sum back to the collection totals.

An index file (format version 2) stores a document's id and labels; its
length, the sum of its postings' tf, is recomputed on load.
"""

from __future__ import annotations

import csv
import gzip
import json
import zlib
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .text import stem_memo, tokenize

INDEX_MAGIC = b"QEXPIDX"
INDEX_FORMAT_VERSION = 2

#: BM25's k1 and b, fixed; `CollectionIndex.bm25_norms` bakes them into its table
BM25_K1 = 1.2
BM25_B = 0.75

# Docs missing a label fall into one of these groups when the category
# defines it; otherwise the build rejects the document.
_UNKNOWN_GROUP_NAMES = ("unknown", "unk")


class CorpusError(ValueError):
    """Invalid corpus input (duplicate ids, missing labels, bad files)."""


def reject_repeats(what: str, names: Sequence[str]) -> None:
    """Raise ValueError naming every name that occurs more than once."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"{what} repeats {', '.join(map(str, repeated))}")


class Document(NamedTuple):
    doc_id: str
    text: str
    labels: Mapping[str, str]


class _CategoryFields(NamedTuple):
    name: str
    groups: tuple[str, ...]


class Category(_CategoryFields):
    __slots__ = ()

    def __new__(cls, name: str, groups: tuple[str, ...]):
        if not groups:
            raise ValueError(f"category {name!r} has no groups")
        if len(set(groups)) != len(groups):
            raise ValueError(f"category {name!r} has duplicate group names")
        return super().__new__(cls, name, groups)


def check_categories(categories: Sequence[Category]) -> None:
    """Reject an empty category list or a repeated category name."""
    if not categories:
        raise CorpusError("no categories")
    try:
        reject_repeats("the category list", [c.name for c in categories])
    except ValueError as exc:
        raise CorpusError(str(exc)) from None


class TermStats(NamedTuple):
    df: int
    cf: int
    # doc_id -> term frequency, in the order the documents were indexed;
    # save and load keep that order
    postings: Mapping[str, int]


_EMPTY_STATS = TermStats(0, 0, {})


class CollectionIndex:
    """Read-only term statistics over a labeled corpus.

    Built once by :func:`build_index`; treated as immutable afterwards.
    ``doc_groups`` (category -> {doc_id: group}, the only copy of the labels)
    is in category and document order, ``doc_lengths`` in document order;
    the group counts and BM25 norms are built from them here. A term's
    :class:`TermStats` and the forward index are built on their first lookup
    and kept, each stored only once complete, so concurrent readers at worst
    build one twice, with equal results.
    """

    def __init__(self, categories, doc_groups, doc_lengths, postings):
        self._categories: dict[str, Category] = {c.name: c for c in categories}
        self._doc_groups: dict[str, dict[str, str]] = doc_groups
        self._doc_lengths: dict[str, int] = doc_lengths
        self._postings: dict[str, dict[str, int]] = postings
        self._term_stats: dict[str, TermStats] = {}
        self._doc_terms: dict[str, dict[str, int]] | None = None  # see doc_terms
        self._total_tokens = sum(doc_lengths.values())
        avgdl = self.avg_doc_len or 1.0  # 0 when every document is stopwords only
        self._bm25_norms = {d: BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl) for d, dl in doc_lengths.items()}
        self._group_docs, self._group_tokens = {}, {}  # category -> group -> count
        for cat in categories:
            docs = self._group_docs[cat.name] = dict.fromkeys(cat.groups, 0)
            tokens = self._group_tokens[cat.name] = dict(docs)
            for doc_id, group in doc_groups[cat.name].items():
                docs[group] += 1
                tokens[group] += doc_lengths[doc_id]

    # ------------------------------- collection ----------------------------
    @property
    def num_docs(self) -> int:
        return len(self._doc_lengths)

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def avg_doc_len(self) -> float:
        return self._total_tokens / len(self._doc_lengths)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(self._doc_lengths)

    @property
    def vocabulary(self):
        return self._postings.keys()

    @property
    def categories(self) -> tuple[Category, ...]:
        return tuple(self._categories.values())

    def category(self, name: str) -> Category:
        try:
            return self._categories[name]
        except KeyError:
            raise KeyError(f"unknown category {name!r}") from None

    def doc_length(self, doc_id: str) -> int:
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise KeyError(f"unknown document {doc_id!r}") from None

    def doc_terms(self, doc_id: str) -> Mapping[str, int]:
        """The document's term -> tf, terms in sorted order.

        The forward index behind it is built from the postings on the
        first call, since only expansion reads it. Its terms are sorted
        rather than in vocabulary order, which is the order the terms were
        first indexed in (save and load keep it), so RM3's float sums over
        them, and so the final ranking's near-ties, do not depend on the
        order the documents were indexed in.
        """
        doc_terms = self._doc_terms
        if doc_terms is None:
            doc_terms = {d: {} for d in self._doc_lengths}
            for term in sorted(self._postings):
                for d, tf in self._postings[term].items():
                    doc_terms[d][term] = tf
            self._doc_terms = doc_terms  # assigned once, complete
        try:
            return doc_terms[doc_id]
        except KeyError:
            raise KeyError(f"unknown document {doc_id!r}") from None

    def bm25_norms(self) -> Mapping[str, float]:
        """doc_id -> BM25_K1 * (1 - BM25_B + BM25_B * length / avg_doc_len), built with the index.

        An index with no tokens, whose avg_doc_len is 0, divides by 1 instead.
        """
        return self._bm25_norms

    def doc_groups(self, category: str) -> Mapping[str, str]:
        """doc_id -> group in the category, in document order; built with the index."""
        return self._doc_groups[self.category(category).name]

    def term_stats(self, term: str) -> TermStats:
        stats = self._term_stats.get(term)
        if stats is None:
            plist = self._postings.get(term)
            if plist is None:
                return _EMPTY_STATS
            stats = self._term_stats[term] = TermStats(len(plist), sum(plist.values()), plist)
        return stats

    # --------------------------------- groups ------------------------------
    def group_doc_counts(self, category: str) -> Mapping[str, int]:
        """group -> documents in the category, in group order; built with the index."""
        return self._group_docs[self.category(category).name]

    def group_token_counts(self, category: str) -> Mapping[str, int]:
        """group -> tokens in the category, in group order; built with the index."""
        return self._group_tokens[self.category(category).name]

    def group_doc_count(self, category: str, group: str) -> int:
        """Documents in one group; see :meth:`group_doc_counts`."""
        counts = self.group_doc_counts(category)
        if group not in counts:
            raise KeyError(f"unknown group {group!r} in category {category!r}")
        return counts[group]

    def group_postings(self, term: str, category: str) -> dict[str, dict[str, int]]:
        """The term's postings split by group: group -> {doc_id: tf}.

        Every group of the category is present (empty when the term is
        absent from it), and each group keeps the order of the term's
        postings: the order the documents were indexed in, which save and
        load keep.
        """
        split: dict[str, dict[str, int]] = {g: {} for g in self.category(category).groups}
        doc_groups = self.doc_groups(category)
        for doc_id, tf in self._postings.get(term, {}).items():
            split[doc_groups[doc_id]][doc_id] = tf
        return split

    # ------------------------------ persistence ----------------------------
    def save(self, path) -> None:
        tables = self._doc_groups.items()  # each document's labels, in category order
        docs = [{"id": d, "labels": {c: table[d] for c, table in tables}} for d in self._doc_lengths]
        payload = {
            "categories": _categories_to_json(self.categories),
            "docs": docs,
            "postings": self._postings,
        }
        # Compact JSON in the index's own order, which is the build order and
        # so deterministic, at gzip level 1: half the write time of sorted
        # keys at level 6, for a file about a fifth larger. load reads any key
        # order and any level of format version 2.
        blob = gzip.compress(
            json.dumps(payload, separators=(",", ":")).encode("utf-8"), compresslevel=1, mtime=0
        )
        with open(path, "wb") as fh:
            fh.write(INDEX_MAGIC)
            fh.write(bytes([INDEX_FORMAT_VERSION]))
            fh.write(blob)

    @classmethod
    def load(cls, path) -> "CollectionIndex":
        """Read an index written by :meth:`save`.

        Any file that does not decode to a consistent index raises
        :class:`CorpusError` naming the path.
        """
        data = Path(path).read_bytes()
        if not data.startswith(INDEX_MAGIC):
            raise CorpusError(f"{path}: not an index file (bad magic)")
        if len(data) == len(INDEX_MAGIC):
            raise CorpusError(f"{path}: truncated index file (no format version)")
        version = data[len(INDEX_MAGIC)]
        if version != INDEX_FORMAT_VERSION:
            raise CorpusError(
                f"{path}: unsupported index format version {version}"
            )
        try:
            payload = json.loads(gzip.decompress(data[len(INDEX_MAGIC) + 1 :]))
        except UnicodeDecodeError:
            raise CorpusError(f"{path}: corrupt index (payload is not UTF-8)") from None
        except (EOFError, OSError, zlib.error, json.JSONDecodeError) as exc:
            raise CorpusError(f"{path}: corrupt index ({exc})") from None
        except ValueError:  # past Python's int string limit
            raise CorpusError(f"{path}: corrupt index (integer too long)") from None
        except RecursionError:
            raise CorpusError(f"{path}: corrupt index (JSON nested too deeply)") from None
        try:
            return cls(*_index_fields(payload))
        except KeyError as exc:
            raise CorpusError(f"{path}: corrupt index (missing field {exc})") from None
        except ValueError as exc:
            raise CorpusError(f"{path}: corrupt index ({exc})") from None


def _index_fields(payload) -> tuple:
    """A decoded index's categories, doc groups, doc lengths and postings.

    Rejects a payload build_index could not have written, checking each field's type first.
    """
    if not isinstance(payload, dict):
        raise ValueError("the payload must be a JSON object")
    categories = _categories_from_json(payload["categories"])
    docs, postings = payload["docs"], payload["postings"]
    if not isinstance(docs, list) or not all(isinstance(d, dict) for d in docs):
        raise ValueError("docs must be a JSON list of objects")
    if not isinstance(postings, dict):
        raise ValueError("postings must be a JSON object of objects")
    if not docs:
        raise ValueError("no documents")
    check_categories(categories)
    doc_groups = {cat.name: {} for cat in categories}
    tokens = {}
    for d in docs:
        doc_id, labels = d["id"], d["labels"]
        _check_doc_id(doc_id)  # before it is hashed as a key
        if doc_id in tokens:
            raise ValueError("duplicate document ids")
        tokens[doc_id] = 0
        if not isinstance(labels, dict):
            raise ValueError(f"document {doc_id!r}: labels must be a JSON object")
        for cat in categories:
            group = labels.get(cat.name)
            if group not in cat.groups:
                raise ValueError(f"document {doc_id!r} has no group of category {cat.name!r}")
            doc_groups[cat.name][doc_id] = group
        if len(labels) > len(categories):  # every category has its label: the rest are unknown
            known = {cat.name for cat in categories}
            unknown = next(name for name in labels if name not in known)
            raise ValueError(f"document {doc_id!r} has a label of unknown category {unknown!r}")
    for term, plist in postings.items():
        if not isinstance(plist, dict):
            raise ValueError(f"term {term!r}: postings must be a JSON object")
        if not plist:
            raise ValueError(f"term {term!r} has no postings")
        for doc_id, tf in plist.items():
            if doc_id not in tokens:
                raise ValueError(f"term {term!r} has a posting for unknown document {doc_id!r}")
            if type(tf) is not int or tf < 1:  # a JSON true decodes to a bool
                raise ValueError(
                    f"term {term!r} has tf {tf!r} for document {doc_id!r}, not an int >= 1"
                )
            tokens[doc_id] += tf
    return categories, doc_groups, tokens, postings


def _check_doc_id(doc_id) -> None:
    # an id is one field of a whitespace-separated TREC run file line
    if not isinstance(doc_id, str):
        raise CorpusError(f"doc_id {doc_id!r} is not a string")
    if doc_id.split() != [doc_id]:
        raise CorpusError(f"doc_id {doc_id!r} is empty or contains whitespace")


def build_index(
    docs: Sequence[Document],
    categories: Sequence[Category],
    tokenizer: Callable[[str], list[str]] = tokenize,
) -> CollectionIndex:
    """Tokenize and index a corpus; deterministic for a given input order.

    Every document must carry a label for every category, and that label
    must name one of the category's groups. A missing label is tolerated
    only when the category itself defines an Unknown/Unk group, which
    then absorbs the document.
    """
    if not docs:
        raise CorpusError("empty corpus")
    check_categories(categories)

    doc_groups: dict[str, dict[str, str]] = {cat.name: {} for cat in categories}
    doc_lengths: dict[str, int] = {}
    postings: dict[str, dict[str, int]] = {}

    with stem_memo():  # one memo per build: each distinct word is stemmed once
        for doc in docs:
            _check_doc_id(doc.doc_id)
            if doc.doc_id in doc_lengths:
                raise CorpusError(f"duplicate doc_id {doc.doc_id!r}")
            for cat in categories:
                group = doc.labels.get(cat.name)
                if group is None:
                    group = _unknown_group(cat)
                    if group is None:
                        raise CorpusError(
                            f"doc {doc.doc_id!r} has no label for category {cat.name!r}"
                        )
                elif group not in cat.groups:
                    raise CorpusError(
                        f"doc {doc.doc_id!r}: unknown group {group!r} "
                        f"for category {cat.name!r}"
                    )
                doc_groups[cat.name][doc.doc_id] = group
            terms = tokenizer(doc.text)
            doc_lengths[doc.doc_id] = len(terms)
            for t, tf in Counter(terms).items():
                postings.setdefault(t, {})[doc.doc_id] = tf

    return CollectionIndex(list(categories), doc_groups, doc_lengths, postings)


def _unknown_group(cat: Category) -> str | None:
    for g in cat.groups:
        if g.lower() in _UNKNOWN_GROUP_NAMES:
            return g
    return None


# ------------------------------- file loading ------------------------------

def read_lines(path) -> Iterator[str]:
    """A UTF-8 text file's lines, each line end read as "\\n"; every text input is read here.

    Lines end at "\\n", "\\r\\n" or "\\r", not at a "\\u2028" in a JSON string as
    with str.splitlines. A leading byte-order mark is skipped. A byte that is not
    UTF-8 raises CorpusError naming its line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError:
        # text mode decodes in blocks: find the byte's line from the whole file
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise CorpusError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None
        raise


def load_corpus_jsonl(path) -> list[Document]:
    """One JSON object per line: {"doc_id": str, "text": str, "labels": {...}}."""
    docs = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from None
        except ValueError:  # past Python's int string limit
            raise CorpusError(f"{path}: line {lineno}: malformed JSON (integer too long)") from None
        except RecursionError:
            raise CorpusError(f"{path}: line {lineno}: malformed JSON (nested too deeply)") from None
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}: line {lineno}: expected a JSON object")
        labels = obj.get("labels", {})
        if not isinstance(labels, dict):
            raise CorpusError(f"{path}: line {lineno}: labels must be a JSON object")
        try:
            doc_id, text = obj["doc_id"], obj["text"]
        except KeyError as exc:
            raise CorpusError(f"{path}: line {lineno}: missing field {exc}")
        fields = [("doc_id", doc_id), ("text", text)]
        fields += [(f"label {category!r}", group) for category, group in labels.items()]
        for name, value in fields:
            if not isinstance(value, str):
                raise CorpusError(f"{path}: line {lineno}: {name} must be a JSON string")
        docs.append(Document(doc_id, text, dict(labels)))
    return docs


def load_categories_json(path) -> list[Category]:
    """A category object {name, groups[]} or a list of them, checked as build_index checks."""
    text = "".join(read_lines(path))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: line {exc.lineno}: malformed JSON ({exc.msg})") from None
    except ValueError:  # past Python's int string limit
        raise CorpusError(f"{path}: malformed JSON (integer too long)") from None
    except RecursionError:
        raise CorpusError(f"{path}: malformed JSON (nested too deeply)") from None
    try:
        categories = _categories_from_json(data if isinstance(data, list) else [data])
        check_categories(categories)
    except ValueError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    return categories


def _categories_from_json(objs) -> list[Category]:
    """The one reader of category records, a categories file's and an index's."""
    if not isinstance(objs, list):
        raise CorpusError("categories must be a JSON list")
    cats = []
    for obj in objs:
        if not isinstance(obj, dict):
            raise CorpusError(f"expected a category object, got {obj!r}")
        try:
            name, groups = obj["name"], obj["groups"]
        except KeyError as exc:
            raise CorpusError(f"category definition missing field {exc}") from None
        if not isinstance(name, str):
            raise CorpusError(f"category name {name!r} is not a JSON string")
        if not isinstance(groups, list) or not all(isinstance(g, str) for g in groups):
            raise CorpusError(f"category {name!r}: groups must be a JSON list of strings")
        cats.append(Category(name, tuple(groups)))  # rejects no groups or a repeated one
    return cats


def _categories_to_json(categories: Iterable[Category]) -> list[dict]:
    """The one writer of category records, the inverse of _categories_from_json."""
    return [{"name": c.name, "groups": list(c.groups)} for c in categories]


def save_corpus_jsonl(path, docs: Iterable[Document]) -> None:
    write_jsonl(
        path, ({"doc_id": d.doc_id, "text": d.text, "labels": dict(d.labels)} for d in docs)
    )


def save_categories_json(path, categories: Iterable[Category]) -> None:
    write_json(path, _categories_to_json(categories))


# ------------------------------- file writing ------------------------------
# Every text file the package writes goes through one of these four: UTF-8,
# "\n" line ends with no newline translation, JSON keys sorted, and floats
# written as their repr (json and csv both do).

def write_lines(path, lines: Iterable[str]) -> None:
    """Each line followed by "\n"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_json(path, obj) -> None:
    """One JSON document, indented by 2, then a newline."""
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def write_jsonl(path, objs: Iterable) -> None:
    """JSON Lines: one JSON value per line."""
    write_lines(path, (json.dumps(obj, sort_keys=True) for obj in objs))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row; csv quotes only where needed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
