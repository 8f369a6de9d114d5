import random

import pytest

from qexp.corpus import Category, Document, build_index
from qexp.text import tokenize


def stable_vocab(n: int, prefix: str = "t") -> list[str]:
    """Tokens that survive the text pipeline unchanged (digit suffixes
    dodge both the stopword list and the stemmer)."""
    vocab = [f"{prefix}{i:03d}" for i in range(n)]
    assert all(tokenize(w) == [w] for w in vocab)
    return vocab


def random_labeled_corpus(
    rng: random.Random,
    num_docs: int = 12,
    num_groups: int = 3,
    vocab_size: int = 8,
    max_len: int = 12,
    num_categories: int = 1,
):
    """A small random corpus where every doc has at least one token."""
    vocab = stable_vocab(vocab_size)
    categories = [
        Category(f"cat{c}", tuple(f"g{c}_{i}" for i in range(num_groups)))
        for c in range(num_categories)
    ]
    docs = []
    for d in range(num_docs):
        tokens = rng.choices(vocab, k=rng.randint(1, max_len))
        labels = {c.name: rng.choice(c.groups) for c in categories}
        docs.append(Document(f"d{d:03d}", " ".join(tokens), labels))
    return docs, categories


def with_duplicates(rng: random.Random, docs):
    """docs plus 1 to 3 copies of about half of them, shuffled.

    A copy has its own doc_id (``c`` and a number, so it sorts apart from
    its original) and the original's text and labels, so it scores the
    same for every query: ties are the rule, not the exception.
    """
    out = list(docs)
    for doc in docs:
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                out.append(Document(f"c{len(out):03d}", doc.text, doc.labels))
    rng.shuffle(out)
    return out


@pytest.fixture
def tiny_index():
    """4 docs, 2 groups, discriminative vocabulary."""
    docs = [
        Document("d1", "t000 t000 t001", {"geo": "east"}),
        Document("d2", "t001 t002 t000", {"geo": "west"}),
        Document("d3", "t000 t003 t003 t003", {"geo": "east"}),
        Document("d4", "t004 t004", {"geo": "west"}),
    ]
    cats = [Category("geo", ("east", "west"))]
    return build_index(docs, cats)
