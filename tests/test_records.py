"""The public records: immutable named tuples that validate when built."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qexp
from qexp.corpus import Category, Document, TermStats
from qexp.evaluation import CvRow, Failure, Row
from qexp.expansion import ExpansionResult
from qexp.exposure import ExposureDistribution, ExposureHistogram
from qexp.predictors import PredictorOutput, QueryGroupStats
from qexp.retrieval import Query, Ranking

_CATEGORY = Category("c", ("a", "b"))
_DIST = ExposureDistribution("c", ("a", "b"), (0.25, 0.75))
_QUERY = Query(("t",), (1.0,), "q1")

RECORDS = [
    Document("d1", "text", {"c": "a"}),
    _CATEGORY,
    TermStats(1, 2, {"d1": 2}),
    _QUERY,
    Ranking("q1", (("d1", 2.0), ("d2", 1.0))),
    _DIST,
    ExposureHistogram(3, 1, "exact", ((0.5, 1.0, 3.0),), 3),
    PredictorOutput("gep", (1.0, 3.0), _DIST),
    QueryGroupStats(_CATEGORY, {"t": 1.0}, 2, {"t": 1}, {"a": 1, "b": 1}, {"a": 3, "b": 4},
                    {"t": {"a": 1, "b": 0}}, {"t": {"a": 1, "b": 0}},
                    {"t": {"a": {"d1": 1}, "b": {}}}),
    ExpansionResult(_QUERY, False),
    Row("bm25", "none", "q1", "c", "gep", 0.5),
    CvRow("bm25", "none", "q1", "c", 12.5, False),
    Failure("bm25", "none", "q1", "ranking", "boom"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_reject_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    # a subclass without __slots__ = () would give its instances a __dict__
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("build", [
    lambda: Category(name="c", groups=()),
    lambda: Query(terms=("a",), weights=()),
    lambda: Ranking(query_id="q", entries=(("d1", 1.0), ("d2", 2.0))),
    lambda: ExposureDistribution(category="c", groups=("a",), values=(0.5,)),
], ids=["Category", "Query", "Ranking", "ExposureDistribution"])
def test_validated_records_check_keyword_arguments(build):
    with pytest.raises(ValueError):
        build()


def test_importing_qexp_does_not_import_dataclasses():
    # defining dataclasses would cost most of the package's import time
    src = str(Path(qexp.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qexp, qexp.cli; print('dataclasses' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True, text=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_importing_qexp_loads_no_submodule():
    # the package root exports nothing: every name is imported from its module
    src = str(Path(qexp.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qexp; print(sorted(m for m in sys.modules if m.startswith('qexp.')))"],
        env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True, text=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
