"""Text processing: lowercasing, stopword removal and Porter stemming.

Documents and queries share the same pipeline so collection statistics
and query terms live in the same term space.
"""

from __future__ import annotations

import contextlib
import re
import unicodedata
from contextvars import ContextVar
from importlib import resources

from .porter import stem

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _load_stopwords() -> frozenset[str]:
    raw = resources.files("qexp").joinpath("data/stopwords.txt").read_text("utf-8")
    words = set()
    for line in raw.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


STOPWORDS = _load_stopwords()


class _StemMemo(dict):
    """word -> stem, or None for a stopword; a word is stemmed on its first lookup only."""

    def __missing__(self, word: str) -> str | None:
        stemmed = self[word] = None if word in STOPWORDS else stem(word)
        return stemmed


# the memo of the stem_memo() block this context is in, if any
_ACTIVE_MEMO: ContextVar[_StemMemo | None] = ContextVar("qexp_stem_memo", default=None)


@contextlib.contextmanager
def stem_memo():
    """Within the block, tokenize stems each distinct word once.

    The memo is dropped when the block ends, and it is set in the current
    context only, so a block in another thread keeps its own memo.
    """
    token = _ACTIVE_MEMO.set(_StemMemo())
    try:
        yield
    finally:
        _ACTIVE_MEMO.reset(token)


def tokenize(text: str) -> list[str]:
    """Fold accents, lowercase, keep the runs of a-z and 0-9, drop stopwords, stem.

    Text that is not all ASCII is NFKD-normalized and its combining marks
    dropped, so "Café naïve" gives ["cafe", "naiv"]. Every other character
    splits a token, letters without a decomposition too: "ß", "æ", "ø",
    "ł" and "đ" still split. Each distinct word is stemmed once per call,
    or once per enclosing :func:`stem_memo` block.
    """
    memo = _ACTIVE_MEMO.get()
    if memo is None:
        memo = _StemMemo()
    if not text.isascii():
        decomposed = unicodedata.normalize("NFKD", text)
        text = "".join(c for c in decomposed if not unicodedata.combining(c))
    words = _TOKEN_RE.findall(text.lower())
    return [t for t in map(memo.__getitem__, words) if t is not None]
