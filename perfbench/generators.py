"""Seeded input generators owned by the benchmark.

Nothing here imports ``qexp``: a change to the program cannot change a
workload's inputs. The same seed always gives the same bytes.

* ``planted_skew`` mirrors the paper's synthetic setting: one dominant
  group holds nearly all topic vocabulary, so rankings concentrate on it.
  Tokens carry digit suffixes and pass the text pipeline unchanged.
* ``natural`` draws Zipfian text over a generated English-like vocabulary
  whose suffixes the Porter stemmer really rewrites, plus real stopwords,
  so tokenizing and stemming cost what they would on prose.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Corpus:
    """Generated inputs in the program's file formats."""

    docs: list[dict]  # {"doc_id", "text", "labels"}
    categories: list[dict]  # {"name", "groups"}
    queries: list[tuple[str, str]]  # (query id, query text)

    def write(self, directory: Path) -> dict[str, Path]:
        """Write corpus.jsonl, categories.json and queries.tsv; return their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "corpus": directory / "corpus.jsonl",
            "categories": directory / "categories.json",
            "queries": directory / "queries.tsv",
        }
        paths["corpus"].write_text(
            "".join(json.dumps(d, sort_keys=True) + "\n" for d in self.docs), "utf-8"
        )
        paths["categories"].write_text(
            json.dumps(self.categories, indent=2, sort_keys=True) + "\n", "utf-8"
        )
        paths["queries"].write_text(
            "".join(f"{qid}\t{text}\n" for qid, text in self.queries), "utf-8"
        )
        return paths

    def properties(self) -> dict:
        """Input properties recorded with every result."""
        words = [w for d in self.docs for w in d["text"].split()]
        lengths: dict[int, int] = {}
        for _, text in self.queries:
            n = len(text.split())
            lengths[n] = lengths.get(n, 0) + 1
        return {
            "docs": len(self.docs),
            "words": len(words),
            "distinct_words": len(set(words)),
            "groups_per_category": {c["name"]: len(c["groups"]) for c in self.categories},
            "queries": len(self.queries),
            "query_length_histogram": {str(k): lengths[k] for k in sorted(lengths)},
        }


# ------------------------------ planted skew --------------------------------

@dataclass(frozen=True)
class PlantedConfig:
    docs_per_group: int = 400
    groups: tuple[str, ...] = ("dominant", "fringe1", "fringe2")
    category: str = "provenance"
    doc_len: int = 40
    topic_vocab: int = 120
    background_vocab: int = 400
    topic_queries: int = 40
    oov_queries: int = 2  # about 5% of all queries; they retrieve nothing
    query_len: int = 3
    dominant_topic_rate: float = 0.25
    fringe_topic_rate: float = 0.01


def planted_skew(seed: int, config: PlantedConfig = PlantedConfig()) -> Corpus:
    rng = random.Random(f"planted:{seed}")
    topics = [f"topic{i:03d}" for i in range(config.topic_vocab)]
    docs = []
    for g_idx, group in enumerate(config.groups):
        background = [f"{group}bg{i:04d}" for i in range(config.background_vocab)]
        rate = config.dominant_topic_rate if g_idx == 0 else config.fringe_topic_rate
        for d in range(config.docs_per_group):
            tokens = [
                rng.choice(topics) if rng.random() < rate else rng.choice(background)
                for _ in range(config.doc_len)
            ]
            docs.append(
                {
                    "doc_id": f"{group}-{d:05d}",
                    "text": " ".join(tokens),
                    "labels": {config.category: group},
                }
            )
    queries = [
        (f"q{i:03d}", " ".join(rng.sample(topics, config.query_len)))
        for i in range(config.topic_queries)
    ]
    # words that occur in no document: their rankings are empty and their
    # realized exposure degenerates to uniform
    queries += [
        (f"oov{i:03d}", " ".join(f"zzoov{rng.randrange(10**6):06d}" for _ in range(config.query_len)))
        for i in range(config.oov_queries)
    ]
    categories = [{"name": config.category, "groups": list(config.groups)}]
    return Corpus(docs, categories, queries)


# ----------------------------- natural vocabulary ---------------------------

# Frequent English function words lead the Zipf ranking, as in prose.
_STOPWORDS = (
    "the of and to in a is that for it as was with be by on not this are "
    "from at or which an have has its but were their they been more"
).split()
_ONSETS = ("b c d f g h j k l m n p r s t v w z br ch cl cr dr fl gr pl pr "
           "sh sl sp st str th tr").split()
_NUCLEI = ("a e i o u ai ea ee ie oa ou").split()
_CODAS = ("", "", "", "n", "r", "l", "s", "t", "m", "nd", "rt", "st", "nt", "ck")
# suffixes Porter rewrites, several per stem, so stemming merges variants
_SUFFIXES = ("", "s", "ed", "ing", "er", "ers", "ly", "ness", "ment", "ments",
             "ation", "ations", "ity", "ies", "ive", "ful", "able", "al",
             "ize", "ized", "ism", "ist", "ous", "ence", "ional", "ousness")


@dataclass(frozen=True)
class NaturalConfig:
    docs: int = 1200
    min_doc_len: int = 60
    max_doc_len: int = 200
    stems: int = 28_000
    variants_per_stem: int = 4  # about 100k distinct surface words
    zipf_s: float = 1.0
    # category -> number of groups; "topic" groups each own a slice of the
    # mid-frequency vocabulary, "source" groups differ only in size
    source_groups: int = 4
    topic_groups: int = 12
    topic_words_per_group: int = 300
    topic_rate: float = 0.15
    queries: int = 400
    min_query_len: int = 2
    max_query_len: int = 8
    query_rank_lo: int = 50  # queries draw from these Zipf ranks
    query_rank_hi: int = 3000


@dataclass(frozen=True)
class Vocabulary:
    words: list[str]  # Zipf rank order, most frequent first
    cum_weights: list[float]
    topic_words: list[list[str]]  # per topic group


def natural_vocabulary(seed: int, config: NaturalConfig = NaturalConfig()) -> Vocabulary:
    rng = random.Random(f"vocab:{seed}")
    stems: set[str] = set()
    stem_list: list[str] = []
    while len(stem_list) < config.stems:
        syllables = rng.choice((1, 2, 2, 3))
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if len(stem) >= 4 and stem not in stems:
            stems.add(stem)
            stem_list.append(stem)
    words: list[str] = []
    seen = set(_STOPWORDS)
    for stem in stem_list:
        for suffix in rng.sample(_SUFFIXES, config.variants_per_stem):
            word = stem + suffix
            if word not in seen:
                seen.add(word)
                words.append(word)
    rng.shuffle(words)
    words = _STOPWORDS + words
    cum = list(itertools.accumulate(1.0 / (r ** config.zipf_s) for r in range(1, len(words) + 1)))
    mid = words[config.query_rank_lo : config.query_rank_hi * 4]
    topic_words = [
        [mid[r] for r in sorted(_stratified(rng, config.topic_words_per_group, 0, len(mid)))]
        for _ in range(config.topic_groups)
    ]
    return Vocabulary(words, cum, topic_words)


def _stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers from [lo, hi), one per equal stratum, in random order.

    Query cost grows steeply with a term's frequency, so every seed gets
    the same spread of Zipf ranks and only the words themselves differ.
    """
    width = (hi - lo) / n
    picks = [lo + int((i + rng.random()) * width) for i in range(n)]
    rng.shuffle(picks)
    return picks


def natural_docs(
    seed: int,
    vocab: Vocabulary,
    count: int,
    config: NaturalConfig = NaturalConfig(),
    prefix: str = "d",
) -> list[dict]:
    rng = random.Random(f"docs:{seed}:{prefix}")
    source_weights = [config.source_groups - i for i in range(config.source_groups)]
    docs = []
    for d in range(count):
        source = rng.choices(range(config.source_groups), weights=source_weights)[0]
        topic = rng.randrange(config.topic_groups)
        n = rng.randint(config.min_doc_len, config.max_doc_len)
        n_topic = sum(1 for _ in range(n) if rng.random() < config.topic_rate)
        tokens = rng.choices(vocab.words, cum_weights=vocab.cum_weights, k=n - n_topic)
        tokens += rng.choices(vocab.topic_words[topic], k=n_topic)
        rng.shuffle(tokens)
        docs.append(
            {
                "doc_id": f"{prefix}{d:06d}",
                "text": " ".join(tokens),
                "labels": {"source": f"s{source}", "topic": f"t{topic:02d}"},
            }
        )
    return docs


def natural_categories(config: NaturalConfig = NaturalConfig()) -> list[dict]:
    return [
        {"name": "source", "groups": [f"s{i}" for i in range(config.source_groups)]},
        {"name": "topic", "groups": [f"t{i:02d}" for i in range(config.topic_groups)]},
    ]


def natural(seed: int, config: NaturalConfig = NaturalConfig()) -> Corpus:
    vocab = natural_vocabulary(seed, config)
    docs = natural_docs(seed, vocab, config.docs, config)
    rng = random.Random(f"queries:{seed}")
    span = config.max_query_len - config.min_query_len + 1
    lengths = [config.min_query_len + i % span for i in range(config.queries)]
    rng.shuffle(lengths)
    # odd positions hold a word of the query's topic group, even ones a
    # mid-frequency word of the whole vocabulary
    n_topic = sum(n // 2 for n in lengths)
    pool = iter(_stratified(rng, sum(lengths) - n_topic, config.query_rank_lo, config.query_rank_hi))
    topical = iter(_stratified(rng, n_topic, 0, config.topic_words_per_group))
    queries = []
    for i, n in enumerate(lengths):
        topic = vocab.topic_words[i % config.topic_groups]
        terms = [topic[next(topical)] if j % 2 else vocab.words[next(pool)] for j in range(n)]
        queries.append((f"q{i:04d}", " ".join(terms)))
    return Corpus(docs, natural_categories(config), queries)
