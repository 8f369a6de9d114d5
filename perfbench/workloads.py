"""The four workloads: inputs, program set-up, one measured operation, checks.

Every workload drives the program through its public functions, mostly
``qexp.cli.main`` as a user would. A traced operation makes the same calls
with timing wrappers injected where the program accepts callables
(rankers, expanders, predictors, the tokenizer) or where the CLI looks a
name up in its module; the wrappers never change arguments or results.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import generators
from spans import Tracer

PREDICTOR_NAMES = ("gep", "scs", "avidf", "avictf", "avpmi", "cori", "uniform")
K = 100


@dataclass
class Op:
    """One measured operation."""

    latency: float  # seconds spent in the program
    units: int  # work units completed, in the workload's unit
    ok: bool
    calls: dict = field(default_factory=dict)  # seconds per timed program call, if several
    sizes: dict = field(default_factory=dict)  # bytes in and out
    scale: float = 1.0  # machine-speed factor measured around the operation

    def timed(self) -> dict:
        """Seconds per timed call, at reference machine speed."""
        return {name: s * self.scale for name, s in (self.calls or {"op": self.latency}).items()}


def sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()[:32]


def run_cli(qx, argv: list[str]) -> tuple[int, str]:
    """``qexp <argv>`` in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qx.cli.main(argv)
    if rc != 0:
        print(err.getvalue().rstrip(), file=sys.stderr)
    return rc, out.getvalue()


@contextlib.contextmanager
def patched(module, **names):
    """Replace module attributes for the duration of the block."""
    old = {name: getattr(module, name) for name in names}
    for name, value in names.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(module, name, value)


class Checks:
    """Output checks of one operation; failures go to stderr."""

    def __init__(self, workload: str):
        self.workload = workload
        self.ok = True

    def __call__(self, cond: bool, message: str) -> None:
        if not cond:
            self.ok = False
            print(f"check failed [{self.workload}]: {message}", file=sys.stderr)


# -------------------------------- workloads ---------------------------------

class Workload:
    name: str
    unit: str  # one work unit of throughput_per_s

    def __init__(self, seed: int, workdir: Path, config=None, expected: dict | None = None):
        self.seed = seed
        self.workdir = workdir
        self.config = config if config is not None else self.default_config()
        self.expected = expected or {}
        self.phase = "setup"  # which phase counters and spans belong to
        self.counts: dict[str, dict[str, float]] = {"setup": {}, "op": {}}
        self.texts: list[str] = []  # texts the traced tokenizer saw
        self.extra_failed = 0  # operations failed by a check spanning several

    @staticmethod
    def default_config():
        raise NotImplementedError

    def generate(self) -> dict:
        """Write the inputs for ``seed``; return their properties."""
        raise NotImplementedError

    def setup(self, qx, tracer: Tracer | None) -> None:
        """Program work before the first operation (importing excluded)."""

    def properties(self, qx) -> dict:
        """Input properties only known once the program has set up."""
        return {}

    def prepare(self, i: int) -> None:
        """Benchmark-side preparation of operation ``i``, never timed."""

    def enough(self) -> bool:
        """Whether the operations so far cover every check."""
        return True

    def op(self, i: int, qx, tracer: Tracer | None) -> Op:
        raise NotImplementedError

    def round_ops(self) -> int:
        """Operations in one round of throughput_per_s: one covers all inputs."""
        return 1

    def named_metrics(self, ops: list[Op]) -> dict:
        """Metrics under their workload-specific names: name -> (value, unit)."""
        return {}

    def digests(self) -> dict:
        """Digests of the deterministic outputs, as the reference table keeps them."""
        return {}

    def count(self, name: str, value: float = 1) -> None:
        counts = self.counts[self.phase]
        counts[name] = counts.get(name, 0) + value

    # -- shared program steps ----------------------------------------------
    def ingest(self, qx, corpus: Path, categories: Path, out: Path,
               tracer: Tracer | None) -> tuple[int, str]:
        """``qexp index``; traced, with read, build, tokenize and save spans."""
        argv = ["index", "--corpus", str(corpus), "--categories", str(categories),
                "--out", str(out)]
        if tracer is None:
            return run_cli(qx, argv)
        real_build = qx.cli.build_index
        default_tokenizer = inspect.signature(real_build).parameters["tokenizer"].default

        def tokenizer(text):
            with tracer.span("text.tokenize"):
                terms = default_tokenizer(text)
            self.texts.append(text)
            self.count("text.tokens", len(terms))
            return terms

        def build_index(docs, cats):
            with tracer.span("corpus.build"):
                index = real_build(docs, cats, tokenizer=tokenizer)
            index.save = tracer.wrap("corpus.save", index.save)
            return index

        with patched(qx.cli, build_index=build_index,
                     load_corpus_jsonl=tracer.wrap("corpus.read", qx.cli.load_corpus_jsonl)):
            return run_cli(qx, argv)

    def count_index(self, path: Path, index) -> None:
        self.count("corpus.index_bytes", path.stat().st_size)
        self.count("corpus.terms", len(index.vocabulary))
        self.count("corpus.postings", sum(index.term_stats(t).df for t in index.vocabulary))


def index_stats_line(index) -> str:
    """The statistics line ``qexp index`` prints for the index it built."""
    return (f"docs={index.num_docs} terms={len(index.vocabulary)} "
            f"tokens={index.total_tokens} categories={len(index.categories)}")


def oov_share(index, queries) -> float:
    terms = [t for q in queries for t in q.terms]
    return sum(1 for t in terms if t not in index.vocabulary) / len(terms)


# A round runs every input once. Each operation of a round counts with the
# median, over its repetitions in the run, of each of its timed calls at
# reference machine speed (see calibration.py).

def typical_latencies(ops: list[Op], round_ops: int, calls=None) -> list[float]:
    """Per operation of a round, the sum of its calls' median repetition (s)."""
    size = min(round_ops, len(ops))
    reps: list[dict] = [{} for _ in range(size)]
    for i, op in enumerate(ops[: len(ops) - len(ops) % size]):
        for name, seconds in op.timed().items():
            if calls is None or name in calls:
                reps[i % size].setdefault(name, []).append(seconds)
    return [sum(percentile(v, 50) for v in r.values()) for r in reps]


def throughput(ops: list[Op], round_ops: int, calls=None) -> float:
    """Work units of a round per second of its typical time."""
    size = min(round_ops, len(ops))
    return sum(o.units for o in ops[:size]) / sum(typical_latencies(ops, round_ops, calls))


def latency_ms(ops: list[Op], round_ops: int, q: float = 50) -> float:
    """q-th percentile over a round's operations of their typical latency."""
    return percentile(typical_latencies(ops, round_ops), q) * 1000.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]


class ExperimentWorkload(Workload):
    """``qexp run`` over a planted-skew corpus, through ``qexp.cli.main``."""

    name = "experiment"
    unit = "query-pipeline"
    RANKERS = ("bm25", "tfidf")
    EXPANDERS = ("none", "rm3", "klq")

    @staticmethod
    def default_config():
        return generators.PlantedConfig()

    def generate(self) -> dict:
        self.corpus = generators.planted_skew(self.seed, self.config)
        self.paths = self.corpus.write(self.workdir / "input")
        self.index_path = self.workdir / "index.qx"
        self.pipelines = len(self.RANKERS) * len(self.EXPANDERS)
        self.first_digest = None
        return self.corpus.properties()

    def setup(self, qx, tracer):
        rc, _ = self.ingest(qx, self.paths["corpus"], self.paths["categories"],
                            self.index_path, tracer)
        if rc != 0:
            raise RuntimeError(f"qexp index exited with {rc}")

    def properties(self, qx):
        index = qx.corpus.CollectionIndex.load(self.index_path)
        queries = qx.cli.load_queries_tsv(self.paths["queries"])
        if self.texts:  # traced set-up
            self.count_index(self.index_path, index)
        return {"tokens": index.total_tokens, "terms": len(index.vocabulary),
                "oov_term_share": oov_share(index, queries), "pipelines": self.pipelines,
                "predictors": len(PREDICTOR_NAMES)}

    def argv(self, out_dir: Path) -> list[str]:
        return ["run", "--index", str(self.index_path), "--queries", str(self.paths["queries"]),
                "--rankers", ",".join(self.RANKERS), "--expanders", ",".join(self.EXPANDERS),
                "--predictors", ",".join(PREDICTOR_NAMES), "--k", str(K),
                "--out-dir", str(out_dir)]

    def op(self, i, qx, tracer):
        out_dir = self.workdir / "run"
        if tracer is None:
            start = perf_counter()
            rc, _ = run_cli(qx, self.argv(out_dir))
            latency = perf_counter() - start
        else:
            events: list = []
            with tracer.span("op") as root:
                rc, _ = self._traced_run(qx, tracer, out_dir, events)
            latency = root["end"] - root["start"]
            self._replay(qx, tracer, events)
        units = len(self.corpus.queries) * self.pipelines
        return Op(latency, units, self.check(rc, out_dir))

    def check(self, rc: int, out_dir: Path) -> bool:
        check = Checks(self.name)
        check(rc == 0, f"qexp run exited with {rc}")
        if rc != 0:
            return False
        blobs = [(out_dir / n).read_bytes() for n in ("jsd.csv", "cv.csv", "summary.json")]
        digest = sha(*blobs)
        self.first_digest = self.first_digest or digest
        check(digest == self.expected.get("digest", self.first_digest),
              "jsd.csv/cv.csv/summary.json differ from the reference digest")
        values = [float(row.rsplit(",", 1)[1]) for row in blobs[0].decode().splitlines()[1:]]
        rows = len(self.corpus.queries) * self.pipelines
        check(len(values) == rows * len(PREDICTOR_NAMES), "jsd.csv row count")
        check(all(0.0 <= v <= 1.0 for v in values), "JSD outside [0, 1]")
        check(len(blobs[1].decode().splitlines()) == 1 + rows, "cv.csv row count")
        check(not json.loads(blobs[2])["failures"], "summary.json lists failures")
        return check.ok

    def _traced_run(self, qx, tracer, out_dir, events):
        """``qexp run`` with spans around each layer the CLI hands work to.

        ``events`` receives ("rank", ranker, is_rerank, index, query,
        ranking), ("expand", expander, result) and ("predict", query id,
        category, predictor, output) in call order.
        """
        ev = qx.evaluation
        last = {"expanded": None}

        class TracedRanker(ev.ModelRanker):
            def rank(self, index, query, k):
                # run_experiment re-ranks exactly the query the expander returned
                rerank = query is last["expanded"]
                last["expanded"] = None
                name = "retrieval.rerank" if rerank else "retrieval.first_pass"
                with tracer.span(name, query.query_id):
                    ranking = super().rank(index, query, k)
                events.append(("rank", self.name, rerank, index, query, ranking))
                return ranking

        class TracedExpander(ev.QueryExpander):
            def expand(self, index, query, ranking):
                with tracer.span("expansion.expand", query.query_id):
                    result = super().expand(index, query, ranking)
                last["expanded"] = result.query
                events.append(("expand", self.name, result))
                return result

        def traced_predictor(name, fn):
            def predictor(index, query, category):
                with tracer.span(f"predictors.{name}", query.query_id):
                    out = fn(index, query, category)
                events.append(("predict", query.query_id, category, name, out))
                return out
            return predictor

        def make_predictors(names, k, config):
            real = qx.predictors.make_predictors(names, k, config)
            return {name: traced_predictor(name, fn) for name, fn in real.items()}

        real_run = qx.cli.run_experiment

        def run_experiment(*args, **kwargs):
            with tracer.span("evaluation.run_experiment"):
                report = real_run(*args, **kwargs)
            for method in ("write_jsd_csv", "write_cv_csv", "write_summary_json"):
                setattr(report, method,
                        tracer.wrap("evaluation.report_write", getattr(report, method)))
            return report

        class TracedIndex(qx.corpus.CollectionIndex):
            @classmethod
            def load(cls, path):
                with tracer.span("corpus.load"):
                    return qx.corpus.CollectionIndex.load(path)

        with patched(qx.cli, ModelRanker=TracedRanker, QueryExpander=TracedExpander,
                     make_predictors=make_predictors, run_experiment=run_experiment,
                     CollectionIndex=TracedIndex,
                     load_queries_tsv=tracer.wrap("text.parse_queries", qx.cli.load_queries_tsv)):
            return run_cli(qx, self.argv(out_dir))

    def _replay(self, qx, tracer, events):
        """Time the calls ``run_experiment`` makes by name, on its recorded rankings.

        Realized exposure, JSD, CV and the t-tests are replayed under a
        separate root span, so they do not count in the traced op's wall time.
        """
        finals = []  # (pipeline, query id, index, final ranking)
        predictions: dict = {}
        for i, event in enumerate(events):
            if event[0] == "predict":
                _, qid, category, name, out = event
                predictions.setdefault((qid, category), {})[name] = out
                self.count("predictors.calls")
                self.count("predictors.degenerate", out.distribution.degenerate)
            elif event[0] == "expand":
                result = event[2]
                self.count("expansion.calls")
                self.count("expansion.expanded", result.expanded)
                self.count("expansion.terms", len(result.query.terms))
            else:
                _, ranker, rerank, index, query, ranking = event
                self.count("retrieval.calls")
                self.count("retrieval.candidates", _candidates(index, query))
                self.count("retrieval.returned", len(ranking.entries))
                if rerank:
                    finals.append(((ranker, events[i - 1][1]), query.query_id, index, ranking))
                elif i + 1 == len(events) or events[i + 1][0] != "expand":
                    finals.append(((ranker, "none"), query.query_id, index, ranking))
        ev, ex = qx.evaluation, qx.exposure
        jsds: dict = {}
        with tracer.span("replay"):
            for pipeline, qid, index, ranking in finals:
                for category in [c.name for c in index.categories]:
                    with tracer.span("exposure.realized", qid):
                        realized = ex.realized_exposure(ranking, index, category)
                    self.count("exposure.realized_calls")
                    self.count("exposure.degenerate", realized.degenerate)
                    with tracer.span("evaluation.stats", qid):
                        ev.coefficient_of_variation(realized.values)
                    for name, pred in predictions[(qid, category)].items():
                        with tracer.span("evaluation.jsd", qid):
                            d = ev.jsd(pred.distribution, realized)
                        jsds.setdefault((pipeline, category, name), {})[qid] = d
            with tracer.span("evaluation.stats"):
                for (pipeline, category, name), ref in jsds.items():
                    if name != PREDICTOR_NAMES[0]:
                        continue
                    for other in PREDICTOR_NAMES[1:]:
                        base = jsds[(pipeline, category, other)]
                        shared = sorted(set(ref) & set(base))
                        try:
                            _, p = ev.paired_t_test([ref[q] for q in shared],
                                                    [base[q] for q in shared])
                        except ValueError:  # too few or identical pairs
                            continue
                        ev.bonferroni([p], len(PREDICTOR_NAMES) - 1)

    def named_metrics(self, ops):
        return {"run_query_pipelines_per_s": (throughput(ops, 1), "1/s")}

    def digests(self):
        return {"digest": self.first_digest}


def _candidates(index, query) -> int:
    """Documents holding a positive-weight query term: what ranking scores."""
    docs: set = set()
    for term, weight in zip(query.terms, query.weights):
        if weight > 0.0:
            docs.update(index.term_stats(term).postings)
    return len(docs)


class PredictWorkload(Workload):
    """All seven predictors over both categories, one query per operation,
    as ``qexp predict`` computes and serializes them."""

    name = "predict"
    unit = "query"

    @staticmethod
    def default_config():
        return generators.NaturalConfig()

    def generate(self) -> dict:
        self.corpus = generators.natural(self.seed, self.config)
        self.paths = self.corpus.write(self.workdir / "input")
        self.index_path = self.workdir / "index.qx"
        self.first_pass: list[bytes] = []
        self.per_query: dict[str, bytes] = {}
        return self.corpus.properties()

    def setup(self, qx, tracer):
        rc, _ = self.ingest(qx, self.paths["corpus"], self.paths["categories"],
                            self.index_path, tracer)
        if rc != 0:
            raise RuntimeError(f"qexp index exited with {rc}")
        load = qx.corpus.CollectionIndex.load
        parse = qx.cli.load_queries_tsv
        if tracer is not None:
            load = tracer.wrap("corpus.load", load)
            parse = tracer.wrap("text.parse_queries", parse)
        self.index = load(self.index_path)
        self.queries = parse(self.paths["queries"])
        self.predictors = qx.predictors.make_predictors(PREDICTOR_NAMES, K)
        self.categories = [c.name for c in self.index.categories]

    def properties(self, qx):
        if self.texts:  # traced set-up
            self.count_index(self.index_path, self.index)
        return {"tokens": self.index.total_tokens, "terms": len(self.index.vocabulary),
                "oov_term_share": oov_share(self.index, self.queries)}

    def enough(self):
        return len(self.first_pass) == len(self.queries)

    def op(self, i, qx, tracer):
        query = self.queries[i % len(self.queries)]
        outputs = []
        if tracer is None:
            start = perf_counter()
            for category in self.categories:
                for predictor in self.predictors.values():
                    outputs.append(predictor(self.index, query, category))
            blob = "".join(json.dumps(o.to_dict(query.query_id), sort_keys=True) + "\n"
                           for o in outputs)
            latency = perf_counter() - start
        else:
            with tracer.span("op", query.query_id) as root:
                for category in self.categories:
                    for name, predictor in self.predictors.items():
                        with tracer.span(f"predictors.{name}", query.query_id):
                            outputs.append(predictor(self.index, query, category))
                blob = "".join(json.dumps(o.to_dict(query.query_id), sort_keys=True) + "\n"
                               for o in outputs)
            latency = root["end"] - root["start"]
            for o in outputs:
                self.count("predictors.calls")
                self.count("predictors.degenerate", o.distribution.degenerate)
        return Op(latency, 1, self.check(query.query_id, outputs, blob.encode()))

    def check(self, qid, outputs, blob: bytes) -> bool:
        check = Checks(self.name)
        check(len(outputs) == len(self.categories) * len(PREDICTOR_NAMES), "prediction count")
        for o in outputs:
            values = o.distribution.values
            check(all(v >= 0.0 for v in values) and abs(sum(values) - 1.0) <= 1e-9,
                  f"{o.predictor} output is not a distribution")
        seen = self.per_query.setdefault(qid, blob)
        check(seen == blob, f"predictions for {qid} changed between operations")
        if seen is blob:  # first time this query ran
            self.first_pass.append(blob)
            expected = self.expected.get("digest")
            if self.enough() and expected is not None and sha(b"".join(self.first_pass)) != expected:
                # the digest covers the predictions file of a whole pass, so
                # every operation of that pass counts as failed
                check(False, "predictions JSONL differs from the reference digest")
                self.extra_failed = len(self.queries) - 1
        return check.ok

    def digests(self):
        return {"digest": sha(b"".join(self.first_pass))}

    def round_ops(self):
        return len(self.queries)

    def named_metrics(self, ops):
        n = self.round_ops()
        return {"predict_qps": (throughput(ops, n), "1/s"),
                "predict_p50_ms": (latency_ms(ops, n), "ms"),
                "predict_p95_ms": (latency_ms(ops, n, 95), "ms")}


@dataclass(frozen=True)
class IndexConfig:
    shard_docs: int = 300
    natural: generators.NaturalConfig = generators.NaturalConfig()


class IndexWorkload(Workload):
    """``qexp index`` of a fresh natural-text shard per operation, then
    ``CollectionIndex.load`` of the saved index."""

    name = "index"
    unit = "document"

    @staticmethod
    def default_config():
        return IndexConfig()

    def generate(self) -> dict:
        natural = self.config.natural
        self.vocab = generators.natural_vocabulary(self.seed, natural)
        self.categories_path = self.workdir / "categories.json"
        self.categories_path.write_text(
            json.dumps(generators.natural_categories(natural)), "utf-8")
        self.shards: dict[int, Path] = {}
        props = self._shard(0).properties()
        return {"shard_docs": props["docs"], "shard_words": props["words"],
                "shard_distinct_words": props["distinct_words"],
                "vocabulary_words": len(self.vocab.words),
                "groups_per_category": props["groups_per_category"]}

    def _shard(self, i: int) -> generators.Corpus:
        docs = generators.natural_docs(self.seed, self.vocab, self.config.shard_docs,
                                       self.config.natural, prefix=f"x{i:04d}-")
        corpus = generators.Corpus(docs, generators.natural_categories(self.config.natural), [])
        self.shards[i] = corpus.write(self.workdir / f"shard{i % 2}")["corpus"]
        return corpus

    def prepare(self, i):
        if i not in self.shards:
            self._shard(i)

    def properties(self, qx):
        out = self.workdir / "first.qx"
        self.ingest(qx, self.shards[0], self.categories_path, out, None)
        index = qx.corpus.CollectionIndex.load(out)
        return {"shard_tokens": index.total_tokens, "shard_terms": len(index.vocabulary)}

    def op(self, i, qx, tracer):
        shard = self.shards[i]
        out = self.workdir / "shard.qx"
        if tracer is None:
            start = perf_counter()
            rc, line = self.ingest(qx, shard, self.categories_path, out, None)
            mid = perf_counter()
            index = qx.corpus.CollectionIndex.load(out) if rc == 0 else None
            end = perf_counter()
        else:
            with tracer.span("op") as root:
                rc, line = self.ingest(qx, shard, self.categories_path, out, tracer)
                mid = perf_counter()
                index = None
                if rc == 0:
                    with tracer.span("corpus.load"):
                        index = qx.corpus.CollectionIndex.load(out)
            start, end = root["start"], root["end"]
            if index is not None:
                self.count_index(out, index)
        sizes = {"index": out.stat().st_size if rc == 0 else 0, "input": shard.stat().st_size}
        return Op(end - start, self.config.shard_docs, self.check(rc, line, index),
                  {"ingest": mid - start, "load": end - mid}, sizes)

    def check(self, rc, line, index) -> bool:
        check = Checks(self.name)
        check(rc == 0, f"qexp index exited with {rc}")
        if index is None:
            return False
        check(line.strip() == index_stats_line(index),
              "loaded index statistics differ from the built index's")
        check(index.num_docs == self.config.shard_docs, "document count")
        for cat in index.categories:
            total = sum(index.group_doc_count(cat.name, g) for g in cat.groups)
            check(total == index.num_docs, f"groups of {cat.name} do not partition the docs")
        return check.ok

    def named_metrics(self, ops):
        return {
            "index_docs_per_s": (throughput(ops, 1, ("ingest",)), "1/s"),
            "index_load_s": (typical_latencies(ops, 1, ("load",))[0], "s"),
            "index_bytes_per_input_byte": (sum(o.sizes["index"] for o in ops)
                                           / sum(o.sizes["input"] for o in ops), "ratio"),
        }


@dataclass(frozen=True)
class ExposureConfig:
    # k=100 with 100k samples takes 6-11 s per analysis on a 2-core Xeon
    # VM, too few repetitions per run to be steady; this takes about 1 s
    k: int = 60
    exact_m: tuple[int, ...] = (1, 2, 3, 4)
    sampled_m: tuple[int, ...] = (10, 25, 50)
    samples: int = 20_000


class ExposureWorkload(Workload):
    """``qexp analyze-exposure``: exact small-m and sampled large-m histograms.

    The seed is the sampling seed; the exact histograms do not depend on it.
    """

    name = "exposure-analysis"
    unit = "position-subset"

    @staticmethod
    def default_config():
        return ExposureConfig()

    def generate(self) -> dict:
        c = self.config
        self.subsets = sum(math.comb(c.k, m) for m in c.exact_m) + c.samples * len(c.sampled_m)
        self.first_digests: dict[str, str] = {}
        return {"k": c.k, "exact_m": list(c.exact_m), "sampled_m": list(c.sampled_m),
                "samples": c.samples, "subsets_per_analysis": self.subsets}

    def argv(self, mode: str, out_dir: Path) -> list[str]:
        c = self.config
        m = c.exact_m if mode == "exact" else c.sampled_m
        return ["analyze-exposure", "--k", str(c.k), "--m", ",".join(map(str, m)),
                "--mode", mode, "--samples", str(c.samples), "--seed", str(self.seed),
                "--out-dir", str(out_dir)]

    def op(self, i, qx, tracer):
        dirs = {mode: self.workdir / mode for mode in ("exact", "sampled")}
        rcs, calls = {}, {}
        if tracer is None:
            for mode, d in dirs.items():
                start = perf_counter()
                rcs[mode] = run_cli(qx, self.argv(mode, d))[0]
                calls[mode] = perf_counter() - start
            latency = sum(calls.values())
        else:
            real = qx.cli.achievable_exposure

            def achievable_exposure(k, m, mode="exact", **kwargs):
                with tracer.span(f"exposure.{mode}"):
                    hist = real(k, m, mode, **kwargs)
                self.count("exposure.subsets_evaluated",
                           hist.subsets if mode == "exact" else hist.sample_size)
                return hist

            with patched(qx.cli, achievable_exposure=achievable_exposure):
                with tracer.span("op") as root:
                    rcs = {mode: run_cli(qx, self.argv(mode, d))[0] for mode, d in dirs.items()}
            latency = root["end"] - root["start"]
        return Op(latency, self.subsets, self.check(rcs, dirs), calls)

    def check(self, rcs, dirs) -> bool:
        check = Checks(self.name)
        for mode, rc in rcs.items():
            check(rc == 0, f"analyze-exposure {mode} exited with {rc}")
            if rc != 0:
                continue
            blob = (dirs[mode] / "histogram.csv").read_bytes()
            digest = sha(blob)
            self.first_digests.setdefault(mode, digest)
            check(digest == self.expected.get(mode, self.first_digests[mode]),
                  f"{mode} histogram.csv differs from the reference digest")
            totals: dict[int, float] = {}
            for row in blob.decode().splitlines()[1:]:
                _, m, _, _, count = row.split(",")
                totals[int(m)] = totals.get(int(m), 0.0) + float(count)
            for m, total in totals.items():
                want = math.comb(self.config.k, m)
                check(abs(total - want) <= 1e-9 * want,
                      f"{mode} counts for m={m} sum to {total}, not C(k, m) = {want}")
        return check.ok

    def named_metrics(self, ops):
        return {"analyze_s": (typical_latencies(ops, 1)[0], "s")}

    def digests(self):
        return dict(self.first_digests)


WORKLOADS = {w.name: w for w in (ExperimentWorkload, PredictWorkload, IndexWorkload,
                                 ExposureWorkload)}
