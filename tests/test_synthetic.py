import hashlib
import json

import pytest

from qexp.synthetic import make_planted_skew_corpus


@pytest.mark.parametrize("kwargs,digest", [
    ({}, "898cc1c28cf2ebc58de6084d3fca2806d6614f6bd7e1aecfd6b836c7577124be"),
    ({"docs_per_group": 20, "num_queries": 12},
     "e06cad21cffba30f6d729014d9261945246c27e41e3164e0b9d60476cf40c5a8"),
])
def test_planted_skew_corpus_is_pinned(kwargs, digest):
    # any moved constant or reordered draw changes every downstream number
    docs, categories, queries = make_planted_skew_corpus(**kwargs)
    blob = json.dumps([[list(r) for r in records] for records in (docs, categories, queries)],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
