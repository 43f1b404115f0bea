import random

import pytest

from oracles import brute_force_accuracy, brute_force_alpha, unit_labels_from_table

from fraseo.errors import EvaluationError
from fraseo.evaluation import (
    NO_CONSENSUS,
    AnnotationRecord,
    ExactMatchReport,
    ReliabilityMatrix,
    accuracy,
    coincidence_matrix,
    consensus,
    exact_match_rate,
    krippendorff_alpha,
    load_annotations,
    load_corpus,
    pairwise_agreement,
)


def test_load_corpus(bundled_fixtures):
    items = load_corpus(bundled_fixtures / "exact_match_corpus.tsv")
    assert len(items) == 9
    assert items[0].target == "El pantalón es morado."
    assert items[0].keywords == ("pantalón", "ser", "morado")


def test_load_corpus_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("just a target with no tab\n", encoding="utf-8")
    with pytest.raises(EvaluationError) as err:
        load_corpus(path)
    assert "line 1" in str(err.value)
    path.write_text("ok target\tuno\n\ttab but empty target\n", encoding="utf-8")
    with pytest.raises(EvaluationError) as err:
        load_corpus(path)
    assert "line 2" in str(err.value)


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.tsv"
    path.write_text("\nUno dos.\tuno,dos\n\n", encoding="utf-8")
    items = load_corpus(path)
    assert len(items) == 1


class FakeResult:
    def __init__(self, texts, echo=False):
        self.texts = texts
        self.echo = echo


def test_exact_match_statuses(bundled_fixtures, tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "Uno dos.\tuno\nTres.\ttres\nEco.\teco\nBum.\tbum\n", encoding="utf-8"
    )
    items = load_corpus(path)

    def generator(words):
        if words == ["uno"]:
            return FakeResult(["Otra cosa.", "Uno   dos."])  # whitespace-normalized hit
        if words == ["tres"]:
            return ["Nada que ver."]
        if words == ["eco"]:
            return FakeResult([], echo=True)
        raise RuntimeError("boom")

    report = exact_match_rate(items, generator)
    assert report.total == 4
    assert report.matched == 1
    assert report.rate == pytest.approx(0.25)
    statuses = [outcome["status"] for outcome in report.outcomes]
    assert statuses == ["matched", "unmatched", "echo", "error"]
    assert report.outcomes[0]["candidate_index"] == 1
    assert "boom" in report.outcomes[3]["detail"]
    assert (report.top1, report.top3, report.mrr) == (0, 1, pytest.approx(0.5 / 4))
    payload = report.to_dict()
    assert payload["rate"] == report.rate
    assert (payload["top1"], payload["top3"], payload["mrr"]) == (0, 1, report.mrr)
    assert len(payload["outcomes"]) == 4


def test_exact_match_report_counts_its_outcomes():
    outcomes = [
        {"status": "matched", "candidate_index": 2},
        {"status": "echo"},
        {"status": "matched", "candidate_index": 0},
        {"status": "unmatched", "candidates": 3},
    ]
    report = ExactMatchReport(outcomes=outcomes)
    assert (report.matched, report.total, report.rate) == (2, 4, 0.5)
    assert (report.top1, report.top3) == (1, 2)
    assert "matched=" not in repr(report)
    empty = report.replaced(outcomes=[])
    assert (empty.matched, empty.total, empty.rate, empty.mrr) == (0, 0, 0.0, 0.0)


def test_exact_match_rank_metrics_on_bundled_corpus(bundled_fixtures, gen):
    items = load_corpus(bundled_fixtures / "exact_match_corpus.tsv")
    report = exact_match_rate(items, gen)
    ranks = [outcome["candidate_index"] for outcome in report.outcomes]
    assert ranks == [0, 3, 0, 15, 3, 0, 1, 0, 2]
    assert (report.matched, report.rate) == (9, 1.0)
    assert (report.top1, report.top3) == (4, 6)
    assert report.mrr == pytest.approx(259 / 432)
    assert report.to_dict()["mrr"] == report.mrr


def test_exact_match_rank_metrics_of_empty_corpus():
    report = exact_match_rate([], lambda words: "Hola.")
    assert (report.top1, report.top3, report.mrr) == (0, 0, 0.0)


def test_exact_match_accepts_plain_strings(tmp_path):
    path = tmp_path / "one.tsv"
    path.write_text("Hola.\thola\n", encoding="utf-8")
    items = load_corpus(path)
    report = exact_match_rate(items, lambda words: "Hola.")
    assert report.rate == 1.0


def test_annotation_record_validation():
    with pytest.raises(ValueError):
        AnnotationRecord("s1", "a1", "z", 3).validate()
    with pytest.raises(ValueError):
        AnnotationRecord("s1", "a1", "a", 9).validate()
    record = AnnotationRecord("s1", "a1", "a", 5, best_generation=1).validate()
    assert record.error_type == "a"


def test_load_annotations(test_fixtures):
    records = load_annotations(test_fixtures / "perfect_annotations.xml")
    assert len(records) == 18
    first = records[0]
    assert (first.sentence_id, first.annotator_id, first.error_type) == ("s01", "ann1", "a")
    assert first.rating == 5
    assert first.best_generation == 1
    suggestions = [r.suggestion for r in records if r.suggestion]
    assert suggestions == ["La sal cayó en el mantel"]


def test_load_annotations_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<wrong/>", encoding="utf-8")
    with pytest.raises(EvaluationError):
        load_annotations(path)
    path.write_text(
        '<annotations><annotation sentence="s1" annotator="a1">'
        "<error>a</error><rating>nine</rating></annotation></annotations>",
        encoding="utf-8",
    )
    with pytest.raises(EvaluationError):
        load_annotations(path)
    path.write_text(
        '<annotations><annotation sentence="s1" annotator="a1">'
        "<error>z</error><rating>3</rating></annotation></annotations>",
        encoding="utf-8",
    )
    with pytest.raises(EvaluationError):
        load_annotations(path)
    # One annotator judging one sentence twice: the agreement matrix would
    # keep the second label while consensus counts both.
    path.write_text(
        "<annotations>\n"
        '<annotation sentence="s1" annotator="A"><error>a</error><rating>3</rating></annotation>\n'
        '<annotation sentence="s1" annotator="B"><error>a</error><rating>4</rating></annotation>\n'
        '<annotation sentence="s1" annotator="A"><error>b</error><rating>3</rating></annotation>\n'
        "</annotations>\n",
        encoding="utf-8",
    )
    with pytest.raises(EvaluationError) as caught:
        load_annotations(path)
    assert (caught.value.line, caught.value.reason) == (
        4, "repeated annotation for sentence s1 annotator A (first on line 2)"
    )


def test_reliability_matrix_from_rows():
    matrix = ReliabilityMatrix.from_rows(
        [["a", "b", None], ["a", "b", "c"]], observers=("o1", "o2")
    )
    assert matrix.observers == ("o1", "o2")
    assert matrix.units == ("u1", "u2", "u3")
    assert matrix.label("o1", "u3") is None
    assert matrix.unit_labels("u1") == ["a", "a"]
    assert matrix.unit_labels("u3") == ["c"]
    restricted = matrix.restrict(("o2",))
    assert restricted.unit_labels("u3") == ["c"]


def test_coincidence_matrix_hand_computed():
    rows = [
        ["a", "a", "a", "b", "b", "a"],
        ["a", "a", "a", "b", "b", "b"],
    ]
    matrix = coincidence_matrix(ReliabilityMatrix.from_rows(rows))
    assert matrix.labels == ("a", "b")
    assert matrix.n == pytest.approx(12.0)
    assert matrix.cell("a", "a") == pytest.approx(6.0)
    assert matrix.cell("b", "b") == pytest.approx(4.0)
    assert matrix.cell("a", "b") == pytest.approx(1.0)
    assert matrix.cell("b", "a") == pytest.approx(1.0)
    assert matrix.n_c == {"a": 7.0, "b": 5.0}
    assert matrix.observed_disagreement() == pytest.approx(2.0 / 12.0)
    assert matrix.expected_disagreement() == pytest.approx(70.0 / 132.0)
    assert krippendorff_alpha(matrix) == pytest.approx(24.0 / 35.0, abs=1e-12)
    assert accuracy(matrix) == pytest.approx(10.0 / 12.0, abs=1e-12)


def test_units_without_two_labels_are_excluded():
    rows = [
        ["a", "a", "a", None],
        ["a", "a", None, "b"],
    ]
    matrix = coincidence_matrix(ReliabilityMatrix.from_rows(rows))
    assert matrix.n == pytest.approx(4.0)
    assert matrix.labels == ("a",)


def test_degenerate_data_flagged_with_alpha_one():
    rows = [["a", "a"], ["a", "a"]]
    matrix = coincidence_matrix(ReliabilityMatrix.from_rows(rows))
    assert matrix.is_degenerate
    assert krippendorff_alpha(matrix) == 1.0
    assert accuracy(matrix) == 1.0
    empty = coincidence_matrix(ReliabilityMatrix.from_rows([["a"], [None]]))
    assert empty.is_degenerate
    assert krippendorff_alpha(empty) == 1.0


def test_alpha_accepts_reliability_matrix_directly():
    rows = [["a", "b"], ["a", "b"]]
    matrix = ReliabilityMatrix.from_rows(rows)
    assert krippendorff_alpha(matrix) == 1.0
    assert accuracy(matrix) == 1.0


def test_alpha_matches_brute_force_oracle_on_random_matrices():
    rng = random.Random(988)
    for _ in range(20):
        observers = tuple("o%d" % i for i in range(rng.randint(2, 5)))
        units = tuple("u%d" % i for i in range(rng.randint(3, 30)))
        table = {}
        for observer in observers:
            for unit in units:
                if rng.random() < 0.15:
                    continue
                table[(observer, unit)] = rng.choice("abcd")
        matrix = ReliabilityMatrix(observers=observers, units=units, values=table)
        unit_lists = unit_labels_from_table(table, observers, units)
        want_alpha, degenerate = brute_force_alpha(unit_lists)
        got = krippendorff_alpha(matrix)
        assert got == pytest.approx(want_alpha, abs=1e-9)
        assert coincidence_matrix(matrix).is_degenerate == degenerate
        assert accuracy(matrix) == pytest.approx(brute_force_accuracy(unit_lists), abs=1e-9)


def test_pairwise_agreement_upper_triangular():
    rows = [["a", "b", "a"], ["a", "b", "b"], ["b", "b", "a"]]
    matrix = ReliabilityMatrix.from_rows(rows, observers=("x", "y", "z"))
    alphas = pairwise_agreement(matrix, "alpha")
    assert set(alphas) == {("x", "y"), ("x", "z"), ("y", "z")}
    accuracies = pairwise_agreement(matrix, "accuracy")
    assert accuracies[("x", "y")] == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        pairwise_agreement(matrix, "kappa")


def test_pairwise_matches_restricted_oracle():
    rng = random.Random(424)
    observers = ("p", "q", "r")
    units = tuple("u%d" % i for i in range(25))
    table = {
        (observer, unit): rng.choice("abc")
        for observer in observers
        for unit in units
        if rng.random() > 0.1
    }
    matrix = ReliabilityMatrix(observers=observers, units=units, values=table)
    for (first, second), value in pairwise_agreement(matrix, "alpha").items():
        pair_table = {k: v for k, v in table.items() if k[0] in (first, second)}
        unit_lists = unit_labels_from_table(pair_table, (first, second), units)
        want, _ = brute_force_alpha(unit_lists)
        assert value == pytest.approx(want, abs=1e-9)


def test_consensus_majority_and_ties():
    records = [
        AnnotationRecord("s1", "a1", "a", 5, best_generation=1),
        AnnotationRecord("s1", "a2", "a", 4, best_generation=1),
        AnnotationRecord("s1", "a3", "b", 3, best_generation=2),
        AnnotationRecord("s2", "a1", "a", 2),
        AnnotationRecord("s2", "a2", "b", 4),
    ]
    result = consensus(records)
    assert result["s1"]["error_type"] == "a"
    assert result["s1"]["rating"] == pytest.approx(4.0)
    assert result["s1"]["best_generation"] == 1
    assert result["s2"]["error_type"] == NO_CONSENSUS
    assert result["s2"]["rating"] == pytest.approx(3.0)
    assert result["s2"]["best_generation"] is None
