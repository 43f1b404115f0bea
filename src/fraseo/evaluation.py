"""Evaluation toolkit: exact-match scoring and annotator agreement.

Two halves: a corpus harness that scores a generator by exact target
match, and nominal-data reliability measures (coincidence matrices,
Krippendorff's alpha, accuracy, pairwise breakdowns) over annotation
records.
"""

from .errors import EvaluationError
from .features import Value
from .fileio import data_lines, element_lines, read_elements

ERROR_TYPES = ("a", "b", "c", "d", "e", "f")
RATING_RANGE = range(0, 6)

NO_CONSENSUS = "no-consensus"


class CorpusItem(Value):
    __slots__ = ("target", "keywords")


def load_corpus(path):
    """Read a TSV evaluation corpus: ``target<TAB>kw1,kw2,...`` per line.

    Blank lines and ``#`` comment lines are skipped. Errors name the line
    and ``path``.
    """
    items = []
    for number, line in data_lines(path, EvaluationError):
        target, sep, keywords = line.partition("\t")
        if not sep:
            raise EvaluationError("missing tab separator", number, path)
        target = target.strip()
        words = tuple(word.strip() for word in keywords.split(",") if word.strip())
        if not target or not words:
            raise EvaluationError("empty target or keyword list", number, path)
        items.append(CorpusItem(target=target, keywords=words))
    return items


def _normalize(text):
    return " ".join(text.split())


def _candidate_texts(result):
    """Accept either a generation result object or a plain iterable of texts."""
    if hasattr(result, "echo") and hasattr(result, "texts"):
        return ([] if result.echo else list(result.texts)), bool(result.echo)
    if isinstance(result, str):
        return [result], False
    return list(result), False


class ExactMatchReport(Value):
    """The outcomes of one ``exact_match_rate`` run, one dict per corpus item.

    ``_derive`` counts them: ``total`` items, of which ``matched`` have the
    status ``matched``, and their share ``rate``, 0.0 for no items.
    """

    _fields = ("outcomes",)
    __slots__ = _fields + ("matched", "total", "rate")

    def _derive(self):
        self.total = len(self.outcomes)
        self.matched = len(self._hits())
        self.rate = self.matched / self.total if self.total else 0.0

    def _hits(self):
        return [o["candidate_index"] for o in self.outcomes if o["status"] == "matched"]

    @property
    def top1(self):
        """Items whose target is the first candidate."""
        return sum(1 for index in self._hits() if index == 0)

    @property
    def top3(self):
        """Items whose target is among the first three candidates."""
        return sum(1 for index in self._hits() if index < 3)

    @property
    def mrr(self):
        """Mean reciprocal rank; echoed, errored and unmatched items count 0."""
        if not self.total:
            return 0.0
        return sum(1 / (index + 1) for index in self._hits()) / self.total

    def to_dict(self):
        return {
            "matched": self.matched,
            "total": self.total,
            "rate": self.rate,
            "top1": self.top1,
            "top3": self.top3,
            "mrr": self.mrr,
            "outcomes": list(self.outcomes),
        }


def exact_match_rate(items, generator):
    """Score a generator on a corpus by exact target match.

    ``generator`` maps a keyword list to candidate sentences (any object
    with ``texts``/``echo``, a string, or an iterable of strings). An
    item counts as matched when any candidate equals the target after
    whitespace normalization. Echoes and generator errors count as
    unmatched with a recorded outcome. The report's ``top1``, ``top3`` and
    ``mrr`` read the rank of each match from its ``candidate_index``.
    """
    outcomes = []
    for item in items:
        outcome = {"target": item.target, "keywords": list(item.keywords)}
        try:
            texts, echoed = _candidate_texts(generator(list(item.keywords)))
        except Exception as exc:  # defensive: errors must not sink the run
            outcome["status"] = "error"
            outcome["detail"] = str(exc)
            outcomes.append(outcome)
            continue
        if echoed:
            outcome["status"] = "echo"
            outcomes.append(outcome)
            continue
        want = _normalize(item.target)
        hit = None
        for index, text in enumerate(texts):
            if _normalize(text) == want:
                hit = index
                break
        if hit is None:
            outcome["status"] = "unmatched"
            outcome["candidates"] = len(texts)
        else:
            outcome["status"] = "matched"
            outcome["candidate_index"] = hit
        outcomes.append(outcome)
    return ExactMatchReport(outcomes=outcomes)


class AnnotationRecord(Value):
    __slots__ = (
        "sentence_id", "annotator_id", "error_type", "rating", "best_generation", "suggestion",
    )
    _defaults = {"best_generation": None, "suggestion": None}

    def validate(self):
        if self.error_type not in ERROR_TYPES:
            raise ValueError("error type must be one of %s" % (ERROR_TYPES,))
        if self.rating not in RATING_RANGE:
            raise ValueError("rating must be an integer in 0..5")
        return self


def load_annotations(path):
    """Read annotation records from XML.

    Format: ``<annotations>`` holding one ``<annotation sentence=..
    annotator=..>`` per judgement with ``<error>``, ``<rating>`` and
    optional ``<best>``/``<suggestion>`` children, at most one per
    (sentence, annotator) pair. Errors name the element's line and
    ``path``; a repeated pair also names the line of its first record.
    """
    first = {}  # the index of each (sentence, annotator) pair's record

    def read(element, root):
        record = _annotation_record(element)
        key = (record.sentence_id, record.annotator_id)
        if key in first:
            raise EvaluationError(
                "repeated annotation for sentence %s annotator %s (first on line %d)"
                % (key + (element_lines(path)[first[key] + 1],))
            )
        first[key] = len(first)
        return record

    return read_elements(path, "annotations", "annotation", read, EvaluationError)


def _annotation_record(element):
    """The AnnotationRecord of one ``<annotation>`` element."""
    sentence = element.get("sentence")
    annotator = element.get("annotator")
    if not sentence or not annotator:
        raise EvaluationError("annotation needs sentence and annotator attributes")
    error = element.findtext("error", "").strip()
    rating_text = element.findtext("rating", "").strip()
    best_text = element.findtext("best")
    suggestion = element.findtext("suggestion")
    try:
        rating = int(rating_text)
    except ValueError:
        raise EvaluationError(
            "bad rating %r for sentence %s annotator %s" % (rating_text, sentence, annotator)
        )
    best = None
    if best_text is not None and best_text.strip():
        try:
            best = int(best_text.strip())
        except ValueError:
            raise EvaluationError("bad best index %r" % best_text)
    record = AnnotationRecord(
        sentence_id=sentence,
        annotator_id=annotator,
        error_type=error,
        rating=rating,
        best_generation=best,
        suggestion=suggestion.strip() if suggestion else None,
    )
    try:
        record.validate()
    except ValueError as exc:
        raise EvaluationError(
            "invalid annotation for sentence %s annotator %s: %s"
            % (sentence, annotator, exc)
        )
    return record


class ReliabilityMatrix(Value):
    """Observers x units table of nominal labels; None marks missing data.

    ``values`` maps (observer, unit) to a label.
    """

    __slots__ = ("observers", "units", "values")

    @classmethod
    def from_rows(cls, rows, observers=None, units=None):
        if observers is None:
            observers = tuple("obs%d" % index for index in range(1, len(rows) + 1))
        width = max((len(row) for row in rows), default=0)
        if units is None:
            units = tuple("u%d" % index for index in range(1, width + 1))
        values = {}
        for observer, row in zip(observers, rows):
            for unit, label in zip(units, row):
                if label is not None:
                    values[(observer, unit)] = label
        return cls(observers=tuple(observers), units=tuple(units), values=values)

    @classmethod
    def from_annotations(cls, records):
        observers = tuple(sorted({record.annotator_id for record in records}))
        units = tuple(sorted({record.sentence_id for record in records}))
        values = {}
        for record in records:
            values[(record.annotator_id, record.sentence_id)] = record.error_type
        return cls(observers=observers, units=units, values=values)

    def label(self, observer, unit):
        return self.values.get((observer, unit))

    def unit_labels(self, unit):
        labels = []
        for observer in self.observers:
            value = self.label(observer, unit)
            if value is not None:
                labels.append(value)
        return labels

    def restrict(self, observers):
        observers = tuple(observers)
        values = {
            (observer, unit): label
            for (observer, unit), label in self.values.items()
            if observer in observers
        }
        return ReliabilityMatrix(observers=observers, units=self.units, values=values)


class CoincidenceMatrix(Value):
    """Pairable-value counts: ``o`` maps (c, k) to a count, ``n_c`` each label to its total."""

    __slots__ = ("labels", "o", "n_c", "n")

    def cell(self, c, k):
        return self.o.get((c, k), 0.0)

    @property
    def is_degenerate(self):
        return self.expected_disagreement() == 0.0

    def observed_disagreement(self):
        if self.n <= 0:
            return 0.0
        off_diagonal = sum(
            value for (c, k), value in self.o.items() if c != k
        )
        return off_diagonal / self.n

    def expected_disagreement(self):
        if self.n <= 1:
            return 0.0
        total = 0.0
        for c in self.labels:
            for k in self.labels:
                if c != k:
                    total += self.n_c.get(c, 0.0) * self.n_c.get(k, 0.0)
        return total / (self.n * (self.n - 1.0))


def coincidence_matrix(matrix):
    """Pairable-value coincidence counts from a reliability matrix.

    Every ordered pair of labels within a unit contributes 1/(m_u - 1),
    m_u being the number of labels the unit received; units with fewer
    than two labels are excluded.
    """
    cells = {}
    labels = set()
    n = 0.0
    for unit in matrix.units:
        unit_labels = matrix.unit_labels(unit)
        m_u = len(unit_labels)
        if m_u < 2:
            continue
        weight = 1.0 / (m_u - 1)
        for i, c in enumerate(unit_labels):
            labels.add(c)
            for j, k in enumerate(unit_labels):
                if i == j:
                    continue
                cells[(c, k)] = cells.get((c, k), 0.0) + weight
                n += weight
    ordered = tuple(sorted(labels))
    n_c = {}
    for c in ordered:
        n_c[c] = sum(cells.get((c, k), 0.0) for k in ordered)
    return CoincidenceMatrix(labels=ordered, o=cells, n_c=n_c, n=n)


def krippendorff_alpha(matrix):
    """Nominal-data alpha: 1 - observed/expected disagreement.

    ``matrix`` may be a CoincidenceMatrix or a ReliabilityMatrix. When
    expected disagreement is zero (all labels identical, or nothing
    pairable) alpha is defined as 1.0; check ``is_degenerate`` on the
    coincidence matrix to detect that case.
    """
    if isinstance(matrix, ReliabilityMatrix):
        matrix = coincidence_matrix(matrix)
    expected = matrix.expected_disagreement()
    if expected == 0.0:
        return 1.0
    return 1.0 - matrix.observed_disagreement() / expected


def accuracy(matrix):
    """Share of pairable agreement: the normalized diagonal mass."""
    if isinstance(matrix, ReliabilityMatrix):
        matrix = coincidence_matrix(matrix)
    if matrix.n <= 0:
        return 1.0
    diagonal = sum(matrix.cell(c, c) for c in matrix.labels)
    return diagonal / matrix.n


def pairwise_agreement(matrix, measure="alpha"):
    """Measure over every two-observer restriction, upper triangular.

    Returns {(observer_i, observer_j): value} for i before j in the
    matrix's observer order.
    """
    if measure == "alpha":
        func = krippendorff_alpha
    elif measure == "accuracy":
        func = accuracy
    else:
        raise ValueError("measure must be 'alpha' or 'accuracy'")
    out = {}
    observers = matrix.observers
    for i in range(len(observers)):
        for j in range(i + 1, len(observers)):
            pair = (observers[i], observers[j])
            out[pair] = func(matrix.restrict(pair))
    return out


def consensus(records):
    """Aggregate one sentence's annotations.

    Strict majority decides the error type and the best generation
    (``no-consensus``/None otherwise); the rating is the arithmetic mean.
    """
    by_sentence = {}
    for record in records:
        by_sentence.setdefault(record.sentence_id, []).append(record)
    out = {}
    for sentence_id in sorted(by_sentence):
        group = by_sentence[sentence_id]
        out[sentence_id] = {
            "error_type": _strict_majority([r.error_type for r in group], NO_CONSENSUS),
            "rating": sum(r.rating for r in group) / len(group),
            "best_generation": _strict_majority(
                [r.best_generation for r in group if r.best_generation is not None], None
            ),
        }
    return out


def _strict_majority(values, fallback):
    if not values:
        return fallback
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    best, best_count = None, 0
    for value, count in sorted(counts.items(), key=lambda item: str(item[0])):
        if count > best_count:
            best, best_count = value, count
    if best_count * 2 > len(values):
        return best
    return fallback
