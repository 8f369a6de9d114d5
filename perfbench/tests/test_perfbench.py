"""Tests of the benchmark itself, at tiny sizes: generators, workloads, checks."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import generators  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_NATURAL = generators.NaturalConfig(docs=40, stems=400, topic_groups=3,
                                        topic_words_per_group=20, queries=8,
                                        query_rank_hi=1000)
TINY = {
    "experiment": generators.PlantedConfig(docs_per_group=15, topic_queries=5, oov_queries=1),
    "predict": TINY_NATURAL,
    "index": workloads.IndexConfig(shard_docs=15, natural=TINY_NATURAL),
    "exposure-analysis": workloads.ExposureConfig(k=12, exact_m=(1, 2), sampled_m=(4,),
                                                  samples=300),
}


@pytest.fixture(autouse=True)
def keep_qexp_modules(monkeypatch):
    """The benchmark re-imports qexp; give later tests back the modules they imported."""
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    saved = {k: v for k, v in sys.modules.items() if k == "qexp" or k.startswith("qexp.")}
    yield
    for name in [k for k in sys.modules if k == "qexp" or k.startswith("qexp.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _bytes(corpus, directory):
    return [p.read_bytes() for p in corpus.write(directory).values()]


@pytest.mark.parametrize("make", [
    lambda seed: generators.planted_skew(seed, TINY["experiment"]),
    lambda seed: generators.natural(seed, TINY_NATURAL),
])
def test_generators_are_deterministic_per_seed(tmp_path, make):
    first = _bytes(make(3), tmp_path / "a")
    assert first == _bytes(make(3), tmp_path / "b")
    assert first != _bytes(make(4), tmp_path / "c")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_completes_without_failures(tmp_path, name, trace):
    result = run.measure(name, 1, 0.0, trace, tmp_path / "w", config=TINY[name])
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = run.layers.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    if trace:
        assert result["layer_sum_s"] == pytest.approx(result["metrics"]["trace.traced_op_s"][0])


def _corrupt_jsd(path):
    lines = path.read_text().splitlines(keepends=True)
    head, value = lines[1].rsplit(",", 1)
    lines[1] = f"{head},1.5\n"  # a JSD outside [0, 1]
    path.write_text("".join(lines))


def _corrupt_histogram(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",7.0\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("name, filename, corrupt", [
    ("experiment", "run/jsd.csv", _corrupt_jsd),
    ("exposure-analysis", "exact/histogram.csv", _corrupt_histogram),
])
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, name, filename, corrupt):
    real = workloads.run_cli
    workdir = tmp_path / "w"

    def corrupting(qx, argv):
        rc, out = real(qx, argv)
        target = workdir / filename
        if argv[0] in ("run", "analyze-exposure") and target.exists():
            corrupt(target)
        return rc, out

    monkeypatch.setattr(workloads, "run_cli", corrupting)
    result = run.measure(name, 1, 0.0, False, workdir, config=TINY[name])
    assert result["failed"] == result["attempted"] >= 1


def test_reference_digest_mismatch_fails_the_whole_pass(tmp_path):
    result = run.measure("predict", 1, 0.0, False, tmp_path / "w", config=TINY["predict"],
                         expected={"digest": "0" * 32})
    assert result["failed"] == TINY_NATURAL.queries
