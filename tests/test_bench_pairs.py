"""The summary of ``tools/bench_pairs.py`` on synthetic run results."""

import importlib.util
import statistics
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

CONFIG = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "p50", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
}


def _result(rate, p50, failed=0, correct=True):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"w.rate": {"value": rate, "unit": "1/s"},
                        "w.p50": {"value": p50, "unit": "ms"}}}


def test_summary_counts_wins_ties_and_spread():
    parent_rates, change_rates = [10, 12, 11, 13], [15, 12, 16, 14]
    parent_p50, change_p50 = [1.0, 1.1, 1.2, 1.3], [1.2, 1.0, 1.2, 1.5]
    pairs = [(_result(a, b), _result(c, d, failed=f, correct=not f))
             for a, c, b, d, f in zip(parent_rates, change_rates, parent_p50,
                                      change_p50, [0, 0, 2, 0])]
    section = bench_pairs.summarize(CONFIG, pairs)
    assert section["pairs"] == 4
    assert section["correct"] == {"parent": True, "change": False}
    assert section["failed"] == {"parent": 0, "change": 2}
    assert section["attempted"] == {"parent": 400, "change": 400}

    rate = section["workloads"]["w"]["rate"]
    q1, median, q3 = statistics.quantiles(parent_rates, n=4,
                                          method="inclusive")
    assert rate["parent"] == {"median": median, "q1": q1, "q3": q3,
                              "runs": parent_rates}
    assert rate["change"]["median"] == 14.5
    # the pair 12 -> 12 is a tie and counts for neither side
    assert rate["change_wins"] == "3/4"
    assert rate["change_over_parent"] == pytest.approx(14.5 / 11.5)
    assert rate["median_diff_exceeds_parent_iqr"] is True
    assert rate["within_bound"] is True

    # lower is better: only 1.1 -> 1.0 is a win, 1.2 -> 1.2 a tie
    p50 = section["workloads"]["w"]["p50"]
    assert p50["change_wins"] == "1/4"
    assert p50["parent"]["median"] == pytest.approx(1.15)
    assert p50["change"]["median"] == pytest.approx(1.2)
    # 1.2 is within 10% of 1.15, and 0.05 is less than the parent IQR
    assert p50["within_bound"] is True
    assert p50["median_diff_exceeds_parent_iqr"] is False


def test_bound_and_claim():
    pairs = [(_result(100 + k, 1.0), _result(70 + k, 1.0)) for k in range(10)]
    section = bench_pairs.summarize(CONFIG, pairs)
    rate = section["workloads"]["w"]["rate"]
    assert rate["change_wins"] == "0/10"
    assert rate["within_bound"] is False
    assert bench_pairs.claim_result(section, "w.rate").startswith("not met")

    pairs = [(_result(100 + k, 1.0), _result(150 - (k == 0) * 60, 1.0))
             for k in range(10)]
    section = bench_pairs.summarize(CONFIG, pairs)
    assert section["workloads"]["w"]["rate"]["change_wins"] == "9/10"
    assert bench_pairs.claim_result(section, "w.rate").startswith("met: ")


def test_source_lines_counts_the_package_and_its_corpus(tmp_path):
    files = {"src/rdsymm/a.py": "x = 1\ny = 2\n",
             "src/rdsymm/corpus/b.py": "z = 3\n",
             "src/rdsymm/corpus/data/t.json": "{}\n",
             "src/rdsymm/notes.txt": "not code\n",
             "tests/test_a.py": "assert True\n"}
    for name, text in files.items():
        path = tmp_path / "change" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    (tmp_path / "parent" / "src" / "rdsymm").mkdir(parents=True)
    (tmp_path / "parent" / "src" / "rdsymm" / "a.py").write_text("x = 1\n")
    assert bench_pairs.source_lines(str(tmp_path / "change")) == 3
    assert bench_pairs.source_lines(str(tmp_path / "parent")) == 1


@pytest.mark.parametrize("claim", ["corpus_suite.verdict_per_s",
                                   "corpus.verdicts_per_s", "corpus_suite",
                                   "corpus_suite.expr.mul_us", ""])
def test_a_bad_claim_is_refused_before_any_run(monkeypatch, claim):
    def never(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "unpack", never)
    monkeypatch.setattr(bench_pairs, "run_pairs", never)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--pr", "x", "--run", "0:1",
                          "--claim", claim])
    assert exc.value.code == 2


def test_a_claim_of_the_benchmark_passes_the_check(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(bench_pairs.subprocess, "run", reached)
    with pytest.raises(Reached):
        bench_pairs.main(["--parent", "HEAD", "--pr", "x", "--run", "0:1",
                          "--claim", "corpus_suite.verdicts_per_s"])
