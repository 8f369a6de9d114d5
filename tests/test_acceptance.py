"""Acceptance suite: one test per criterion, with a printed PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even when everything passes.
"""

import functools
import math
import random
import time
from itertools import combinations

import pytest

from qexp.cli import main
from qexp.corpus import Category, Document, build_index
from qexp.evaluation import (
    ModelRanker,
    QueryExpander,
    bonferroni,
    coefficient_of_variation,
    jsd,
    run_experiment,
)
from qexp.exposure import achievable_exposure, log_orderings, position_exposure
from qexp.predictors import BASELINES, make_predictors
from qexp.retrieval import Query, rank
from qexp.stats import student_t_two_sided_p
from qexp.synthetic import TOPICS, make_planted_skew_corpus

from conftest import stable_vocab
from oracles import (
    oracle_distribution,
    oracle_rank,
    oracle_raw_scores,
    t_two_sided_p_by_quadrature,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] {description}: FAIL")
                raise
            print(f"[criterion {number:2d}] {description}: PASS")

        return wrapper

    return decorate


def _random_distribution(rng, n):
    values = [rng.random() for _ in range(n)]
    total = sum(values)
    return [v / total for v in values]


@criterion(1, "exposure model worked values, <1ms per call")
def test_criterion_1_exposure_model():
    start = time.perf_counter()
    assert position_exposure(1) == 1.0
    assert position_exposure(5) == pytest.approx(0.3869, abs=1e-3)
    group_total = position_exposure(1) + position_exposure(5)
    assert group_total == pytest.approx(1.3869, abs=1e-3)
    assert time.perf_counter() - start < 1e-3


@criterion(2, "JSD identity/disjoint/symmetry/triangle on 10k samples, <5s")
def test_criterion_2_jsd():
    start = time.perf_counter()
    assert jsd([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-9)
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.randint(2, 8)
        p = _random_distribution(rng, n)
        e = _random_distribution(rng, n)
        assert abs(jsd(p, e) - jsd(e, p)) <= 1e-9
    for _ in range(10_000):
        n = rng.randint(2, 6)
        a = _random_distribution(rng, n)
        b = _random_distribution(rng, n)
        c = _random_distribution(rng, n)
        assert jsd(a, c) <= jsd(a, b) + jsd(b, c) + 1e-9
    assert time.perf_counter() - start < 5.0


@criterion(3, "coefficient of variation worked values")
def test_criterion_3_cv():
    assert coefficient_of_variation([0.25, 0.25, 0.25, 0.25]) == 0.0
    assert coefficient_of_variation([1, 0, 0, 0]) == pytest.approx(173.2, abs=0.1)


@criterion(4, "predictors match brute-force oracle on 50 random fixtures, <30s")
def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    vocab = stable_vocab(10)
    names = ("gep",) + BASELINES
    for trial in range(50):
        rng = random.Random(1000 + trial)
        groups = [f"g{i}" for i in range(rng.randint(2, 4))]
        doc_tokens = {}
        labels = {}
        num_docs = rng.randint(len(groups), 20)
        for d in range(num_docs):
            doc_id = f"d{d:03d}"
            doc_tokens[doc_id] = rng.choices(vocab, k=rng.randint(1, 10))
            labels[doc_id] = groups[d % len(groups)]  # no empty groups
        docs = [
            Document(d, " ".join(toks), {"c": labels[d]})
            for d, toks in doc_tokens.items()
        ]
        idx = build_index(docs, [Category("c", tuple(groups))])
        query_terms = rng.choices(vocab, k=rng.randint(1, 4))
        query = Query.from_terms(query_terms)
        k = rng.choice([1, 5, 100])
        for name, fn in make_predictors(names, k=k).items():
            out = fn(idx, query, "c")
            raw = oracle_raw_scores(name, doc_tokens, labels, groups, query_terms, k)
            for gi, g in enumerate(groups):
                assert out.raw_scores[gi] == pytest.approx(raw[g], abs=1e-9), name
            expected = oracle_distribution(raw, groups)
            for got, want in zip(out.distribution.values, expected):
                assert got == pytest.approx(want, abs=1e-9), name
    assert time.perf_counter() - start < 30.0


@criterion(5, "achievable-exposure combinatorics and orderings count")
def test_criterion_5_combinatorics():
    for k in range(1, 13):
        weights = [position_exposure(p) for p in range(1, k + 1)]
        for m in range(k + 1):
            hist = achievable_exposure(k, m)
            sums = sorted(
                sum(weights[i] for i in subset) for subset in combinations(range(k), m)
            )
            assert sum(b[2] for b in hist.bins) == math.comb(k, m)
            assert hist.bins[0][0] == pytest.approx(sums[0], abs=1e-9)
            assert hist.bins[-1][1] == pytest.approx(sums[-1], abs=1e-9)
    exact = math.log10(math.factorial(100))  # big-integer oracle
    assert log_orderings(100) == pytest.approx(exact, abs=1e-9)
    assert log_orderings(100) == pytest.approx(157.97, abs=0.01)
    # the mathematically correct count, not the smaller figure sometimes quoted
    assert not math.isclose(log_orderings(100), 152.0, abs_tol=1.0)


@criterion(6, "rank() equals score-all-then-sort on 1000-doc random corpora")
def test_criterion_6_ranking_correctness():
    vocab = stable_vocab(60)
    for corpus_seed in (99, 100, 101):
        rng = random.Random(corpus_seed)
        doc_tokens = {
            f"d{d:04d}": rng.choices(vocab, k=rng.randint(2, 30)) for d in range(1000)
        }
        docs = [Document(d, " ".join(toks), {"c": "g"}) for d, toks in doc_tokens.items()]
        idx = build_index(docs, [Category("c", ("g",))])
        for trial in range(3):
            query = Query.from_terms(rng.sample(vocab, 3))
            for model in ("bm25", "tfidf"):
                scored = oracle_rank(doc_tokens, query.terms, query.weights, model, len(docs))
                for k in (1, 10, 100):
                    got = rank(idx, query, model, k)
                    assert list(got.entries) == scored[:k], (model, k)


def _skew_experiment(expanders):
    docs, cats, queries = make_planted_skew_corpus()
    assert len(queries) >= 30
    idx = build_index(docs, cats)
    # the planted skew: the dominant group owns >= 80% of query-term mass
    cat = cats[0]
    mass = {g: 0 for g in cat.groups}
    for t in TOPICS:
        for g, plist in idx.group_postings(t, cat.name).items():
            mass[g] += sum(plist.values())
    assert mass["dominant"] / sum(mass.values()) >= 0.80
    predictors = make_predictors(("gep",) + BASELINES + ("uniform",), k=100)
    report = run_experiment(
        idx, queries, None, [ModelRanker("bm25")], expanders, predictors, k=100
    )
    assert not report.failures
    return {
        p["expander"]: p["categories"][cat.name]["mean_jsd"] for p in report.summary["pipelines"]
    }


@criterion(7, "planted-skew corpus: GEP beats uniform and every baseline, <60s")
def test_criterion_7_directional_reproduction():
    start = time.perf_counter()
    means = _skew_experiment([None])["none"]
    for other in BASELINES + ("uniform",):
        assert means["gep"] < means[other], other
    assert time.perf_counter() - start < 60.0


@criterion(8, "RM3/KLQ move GEP's mean JSD by less than 0.1")
def test_criterion_8_prf_robustness():
    means = _skew_experiment([None, QueryExpander("rm3"), QueryExpander("klq")])
    base = means["none"]["gep"]
    assert abs(means["rm3"]["gep"] - base) < 0.1
    assert abs(means["klq"]["gep"] - base) < 0.1


@criterion(9, "paired t-test matches numerical integration; Bonferroni clamps")
def test_criterion_9_statistics():
    p = student_t_two_sided_p(2.262, 9)
    assert p == pytest.approx(0.05, abs=0.002)
    assert p == pytest.approx(t_two_sided_p_by_quadrature(2.262, 9), abs=1e-8)
    assert bonferroni([0.5], 5) == [1.0]
    assert bonferroni([0.004], 5) == [pytest.approx(0.02)]


@criterion(10, "cmd_run is byte-identical for identical config")
def test_criterion_10_end_to_end_determinism(tmp_path):
    import json

    corpus = tmp_path / "corpus.jsonl"
    docs, cats, queries = make_planted_skew_corpus(docs_per_group=40, num_queries=8)
    with open(corpus, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"doc_id": d.doc_id, "text": d.text, "labels": dict(d.labels)}) + "\n")
    categories = tmp_path / "categories.json"
    categories.write_text(json.dumps([{"name": c.name, "groups": list(c.groups)} for c in cats]), encoding="utf-8")
    qfile = tmp_path / "queries.tsv"
    qfile.write_text("".join(f"{q.query_id}\t{' '.join(q.terms)}\n" for q in queries), encoding="utf-8")

    index = tmp_path / "index.qx"
    assert main(["index", "--corpus", str(corpus), "--categories", str(categories),
                 "--out", str(index)]) == 0
    out_dir = tmp_path / "out"
    argv = [
        "run", "--index", str(index),
        "--queries", str(qfile), "--rankers", "bm25", "--expanders", "none,rm3",
        "--predictors", "gep,scs,avidf,avictf,avpmi,cori",
        "--k", "50", "--out-dir", str(out_dir),
    ]
    assert main(argv) == 0
    names = ("config.json", "jsd.csv", "cv.csv", "summary.json")
    first = {n: (out_dir / n).read_bytes() for n in names}
    assert main(argv) == 0
    for n in names:
        assert (out_dir / n).read_bytes() == first[n], n
