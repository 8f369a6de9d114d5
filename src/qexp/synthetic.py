"""Synthetic corpora with planted exposure skew.

Generates a labeled corpus where one group ("dominant") holds almost all
occurrences of the topic vocabulary that queries are drawn from, so its
documents monopolize rankings for those queries. Useful for exercising
the full pipeline without any external collection.

Vocabulary tokens carry digit suffixes, which makes them inert under the
text pipeline (no stopword, no stemming change), so corpus statistics
are exactly what the generator planted.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .corpus import Category, Document
from .retrieval import Query


class SyntheticConfig(NamedTuple):
    seed: int = 7
    groups: tuple[str, ...] = ("dominant", "fringe1", "fringe2")
    category: str = "provenance"
    docs_per_group: int = 150
    doc_len: int = 40
    # large topic vocabulary keeps per-term document frequencies well below
    # half the group size, the regime where tf-idf mass tracks group mass
    topic_vocab: int = 120
    background_vocab: int = 400
    num_queries: int = 40
    query_len: int = 3
    # probability that a dominant-group token is a topic term vs background
    dominant_topic_rate: float = 0.25
    fringe_topic_rate: float = 0.01


def topic_terms(config: SyntheticConfig = SyntheticConfig()) -> list[str]:
    return [f"topic{i:03d}" for i in range(config.topic_vocab)]


def make_planted_skew_corpus(
    config: SyntheticConfig = SyntheticConfig(),
) -> tuple[list[Document], list[Category], list[Query]]:
    """Returns (documents, categories, queries) with one dominant group."""
    rng = random.Random(config.seed)
    topics = topic_terms(config)

    docs: list[Document] = []
    for g_idx, group in enumerate(config.groups):
        # every group has its own background vocabulary, so feedback terms
        # drawn from one group's documents keep pointing at that group
        background = [f"{group}bg{i:04d}" for i in range(config.background_vocab)]
        topic_rate = (
            config.dominant_topic_rate if g_idx == 0 else config.fringe_topic_rate
        )
        for d in range(config.docs_per_group):
            tokens = []
            for _ in range(config.doc_len):
                if rng.random() < topic_rate:
                    tokens.append(rng.choice(topics))
                else:
                    tokens.append(rng.choice(background))
            docs.append(
                Document(
                    doc_id=f"{group}-{d:04d}",
                    text=" ".join(tokens),
                    labels={config.category: group},
                )
            )

    categories = [Category(config.category, config.groups)]
    queries = [
        Query.from_terms(
            rng.sample(topics, config.query_len), query_id=f"q{i:03d}"
        )
        for i in range(config.num_queries)
    ]
    return docs, categories, queries
