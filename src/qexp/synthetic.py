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

from .corpus import Category, Document
from .retrieval import Query

GROUPS = ("dominant", "fringe1", "fringe2")
CATEGORY = "provenance"
DOC_LEN = 40
# a large topic vocabulary keeps per-term document frequencies well below
# half the group size, the regime where tf-idf mass tracks group mass
TOPICS = tuple(f"topic{i:03d}" for i in range(120))
BACKGROUND_VOCAB = 400
QUERY_LEN = 3
# probability that a dominant-group token is a topic term vs background
DOMINANT_TOPIC_RATE = 0.25
FRINGE_TOPIC_RATE = 0.01


def make_planted_skew_corpus(
    seed: int = 7, docs_per_group: int = 150, num_queries: int = 40,
) -> tuple[list[Document], list[Category], list[Query]]:
    """Returns (documents, categories, queries) with one dominant group."""
    rng = random.Random(seed)
    docs: list[Document] = []
    for g_idx, group in enumerate(GROUPS):
        # every group has its own background vocabulary, so feedback terms
        # drawn from one group's documents keep pointing at that group
        background = [f"{group}bg{i:04d}" for i in range(BACKGROUND_VOCAB)]
        topic_rate = DOMINANT_TOPIC_RATE if g_idx == 0 else FRINGE_TOPIC_RATE
        for d in range(docs_per_group):
            tokens = []
            for _ in range(DOC_LEN):
                if rng.random() < topic_rate:
                    tokens.append(rng.choice(TOPICS))
                else:
                    tokens.append(rng.choice(background))
            docs.append(
                Document(
                    doc_id=f"{group}-{d:04d}",
                    text=" ".join(tokens),
                    labels={CATEGORY: group},
                )
            )

    categories = [Category(CATEGORY, GROUPS)]
    queries = [
        Query.from_terms(rng.sample(TOPICS, QUERY_LEN), query_id=f"q{i:03d}")
        for i in range(num_queries)
    ]
    return docs, categories, queries
