"""Merged-lexicon construction from heterogeneous source lexica.

Three-stage batch pipeline: extract records from a primary source and
expand them through a second one (following cross-reference links to a
fixed point), verify every record against a pluggable oracle, then merge
per (lemma, category) by unifying compatible feature bundles. A
MergeReport tallies every stage.

Source files use the lexicon format, read by ``fileio.read_elements``,
plus a ``source`` attribute on the root or on an entry; ``x-`` prefixed
entry attributes become extras. The allowlist is a line file read by
``fileio.data_lines``.
"""

from operator import attrgetter

from .errors import LexiconError, LexiconParseError
from .features import (
    AXES, AXIS_UNSPECIFIED, INVARIABLE_CATEGORIES, AdverbClass, LexicalCategory, Value,
)
from .fileio import data_lines, read_elements
from .lexicon import LexicalEntry, Lexicon, WordForm, parse_extras, parse_forms, parse_reflexive

# Source tags never admitted into the merged lexicon.
DROPPED_CATEGORIES = frozenset({"interjection", "numeral", "proper_name"})

# Extras key holding comma-separated cross-referenced lemmas.
RELATED_KEY = "related"

# Upper bound on cross-reference expansion waves.
EXPANSION_CAP = 10


class SourceRecord(Value):
    """One entry as read from a source lexicon, category kept verbatim.

    ``extras`` holds ``(key, value)`` pairs.
    """

    __slots__ = (
        "source_id", "lemma", "category", "forms", "adverb_class", "reflexive_capable",
        "extras",
    )
    _defaults = {"forms": (), "adverb_class": None, "reflexive_capable": False, "extras": ()}

    def related_lemmas(self):
        related = dict(self.extras).get(RELATED_KEY, "")
        return [lemma.strip() for lemma in related.split(",") if lemma.strip()]


class SourceCounts:
    """One source's tallies, each changed in place as a build runs."""

    __slots__ = (
        "extracted_records", "extracted_forms", "verified_records", "verified_forms",
        "rejected_records", "rejected_forms",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class MergeReport:
    """Every stage's tallies, changed in place as a build runs."""

    def __init__(self):
        self.sources = {}  # source id -> SourceCounts
        self.dropped_records = 0
        self.expansion_misses = 0
        self.merged_common = 0
        self.merged_unique = 0
        self.conflicts = []

    def counts_for(self, source_id):
        if source_id not in self.sources:
            self.sources[source_id] = SourceCounts()
        return self.sources[source_id]

    def note_extracted(self, record):
        counts = self.counts_for(record.source_id)
        counts.extracted_records += 1
        counts.extracted_forms += len(record.forms)

    def note_verified(self, record, kept):
        counts = self.counts_for(record.source_id)
        if kept:
            counts.verified_records += 1
            counts.verified_forms += len(record.forms)
        else:
            counts.rejected_records += 1
            counts.rejected_forms += len(record.forms)

    def to_flat_dict(self):
        flat = {}
        for source_id in sorted(self.sources):
            counts = self.sources[source_id]
            for name in SourceCounts.__slots__:
                flat["%s_%s" % (source_id, name)] = getattr(counts, name)
        flat["dropped_records"] = self.dropped_records
        flat["expansion_misses"] = self.expansion_misses
        flat["merged_common"] = self.merged_common
        flat["merged_unique"] = self.merged_unique
        flat["conflicts"] = list(self.conflicts)
        return flat


def load_source_records(path):
    """Read a source lexicon file into SourceRecords.

    Entries take their source from their own ``source`` attribute, else
    the root's, else the path. Categories and adverb classes are kept
    verbatim for later mapping. Errors name the path and the line.
    """

    def read_record(element, root):
        lemma = element.get("lemma", "").strip()
        if not lemma:
            raise LexiconParseError("source entry without lemma")
        return SourceRecord(
            source_id=element.get("source", root.get("source") or str(path)),
            lemma=lemma,
            category=element.get("cat", ""),
            forms=parse_forms(element, lemma),
            adverb_class=element.get("adverb-class"),
            reflexive_capable=parse_reflexive(element),
            extras=parse_extras(element),
        )

    return read_elements(path, "lexicon", "entry", read_record, LexiconParseError)


def build_expansion_index(records):
    """Index expansion-source records by lemma."""
    index = {}
    for record in records:
        index.setdefault(record.lemma, []).append(record)
    return index


def normalize_category(raw):
    return raw.strip().lower().replace("-", "_").replace(" ", "_")


def map_category(raw):
    """Map a verbatim source tag onto a lexicon category.

    Returns None both for deliberately dropped tags (interjections,
    numerals, proper names) and for unknown ones.
    """
    name = normalize_category(raw)
    if name in DROPPED_CATEGORIES:
        return None
    try:
        return LexicalCategory(name)
    except ValueError:
        return None


def _map_record(record, report):
    category = map_category(record.category)
    if category is None:
        report.dropped_records += 1
        return None
    mapped = record.replaced(category=category.value)
    report.note_extracted(mapped)
    return mapped


def extract_and_map(primary_records, expansion_source, report=None):
    """Map primary records to the common format and expand cross-references.

    Returns (primary set, expansion set). ``expansion_source`` maps a lemma
    to its expansion records (see ``build_expansion_index``), or is None.
    Every lemma surviving the category filter is looked up in it; lemmas its
    records reference through the ``related`` extra are followed
    breadth-first until no new lemma appears (bounded by EXPANSION_CAP
    waves). Lookup misses are counted, never fatal.
    """
    if report is None:
        report = MergeReport()
    if expansion_source is None:
        expansion_source = {}
    mapped_primary = []
    for record in primary_records:
        mapped = _map_record(record, report)
        if mapped is not None:
            mapped_primary.append(mapped)

    mapped_expansion = []
    visited = set()
    frontier = []
    for record in mapped_primary:
        if record.lemma not in visited:
            visited.add(record.lemma)
            frontier.append(record.lemma)

    for _wave in range(EXPANSION_CAP):
        if not frontier:
            break
        next_frontier = []
        for lemma in frontier:
            found = expansion_source.get(lemma)
            if not found:
                report.expansion_misses += 1
                continue
            for record in found:
                mapped = _map_record(record, report)
                if mapped is None:
                    continue
                mapped_expansion.append(mapped)
                for related in mapped.related_lemmas():
                    if related not in visited:
                        visited.add(related)
                        next_frontier.append(related)
        frontier = next_frontier

    return mapped_primary, mapped_expansion


class AllowlistOracle:
    """Verification oracle backed by a lemma allowlist file.

    Each line reads ``lemma<TAB>cat1,cat2``. A lemma listed on several
    lines takes the categories of all of them. Queries are pure.
    """

    def __init__(self, table):
        self._table = {
            lemma: frozenset(categories) for lemma, categories in table.items()
        }

    @classmethod
    def load(cls, path):
        table = {}
        for number, line in data_lines(path, LexiconParseError):
            lemma, _, cats = line.partition("\t")
            lemma = lemma.strip()
            names = [name for name in map(normalize_category, cats.split(",")) if name]
            if not lemma or not names:
                raise LexiconParseError("bad allowlist line", number, path)
            categories = table.setdefault(lemma, set())
            for name in names:
                try:
                    categories.add(LexicalCategory(name))
                except ValueError:
                    raise LexiconParseError(
                        "unknown category %r in allowlist" % name, number, path
                    )
        return cls(table)

    def categories(self, lemma):
        return set(self._table.get(lemma, frozenset()))


def verify(records, oracle, report=None):
    """Keep records whose mapped category the oracle lists for their lemma.

    The oracle is asked only ``categories(lemma)``: a lemma it lacks has
    no categories, and an unmappable tag maps to None, which none holds.
    """
    if report is None:
        report = MergeReport()
    kept = []
    for record in records:
        accepted = map_category(record.category) in oracle.categories(record.lemma)
        report.note_verified(record, accepted)
        if accepted:
            kept.append(record)
    return kept


_AXIS_MEMBERS = attrgetter(*AXES)
# The value of every member of every feature axis, read once.
_AXIS_VALUES = {
    member: member.value for _, unspecified in AXIS_UNSPECIFIED for member in type(unspecified)
}


def _bundle_key(features):
    return tuple(_AXIS_VALUES[member] for member in _AXIS_MEMBERS(features))


def _form_key(form):
    return (form.surface, _bundle_key(form.features))


def _cluster_forms(forms):
    """Group compatible bundles of one surface, most-supported first.

    Forms are considered in canonical order so the outcome is independent
    of source order. Each cluster carries (merged bundle, support count).
    """
    ordered = sorted(forms, key=_form_key)
    clusters = []
    for form in ordered:
        for index, (bundle, support) in enumerate(clusters):
            try:
                merged = bundle.merged_with(form.features)
            except ValueError:
                continue
            clusters[index] = (merged, support + 1)
            break
        else:
            clusters.append((form.features, 1))
    clusters.sort(key=lambda item: (-item[1], _bundle_key(item[0])))
    return clusters


def _merge_surface(surface, forms, label, conflicts):
    """Resolve one surface's pooled bundles to at most one form."""
    clusters = _cluster_forms(forms)
    if len(clusters) == 1:
        return WordForm(surface=surface, features=clusters[0][0])
    top, runner_up = clusters[0][1], clusters[1][1]
    if top > runner_up:
        conflicts.append(
            "%s: surface %r has %d incompatible readings; kept the majority one"
            % (label, surface, len(clusters))
        )
        return WordForm(surface=surface, features=clusters[0][0])
    conflicts.append(
        "%s: surface %r has %d incompatible readings with no majority; excluded"
        % (label, surface, len(clusters))
    )
    return None


def _pick_adverb_class(records, label, conflicts):
    classes = sorted({r.adverb_class for r in records if r.adverb_class})
    if not classes:
        return None
    if len(classes) > 1:
        conflicts.append(
            "%s: conflicting adverb classes %s; kept %r"
            % (label, ", ".join(classes), classes[0])
        )
    try:
        return AdverbClass(classes[0])
    except ValueError:
        conflicts.append("%s: unknown adverb class %r dropped" % (label, classes[0]))
        return None


def _merge_extras(records, label, conflicts):
    values = {}
    for record in records:
        for key, value in record.extras:
            values.setdefault(key, set()).add(value)
    extras = []
    for key in sorted(values):
        options = sorted(values[key])
        if len(options) > 1:
            conflicts.append(
                "%s: extras key %r has conflicting values %s; kept %r"
                % (label, key, ", ".join(options), options[0])
            )
        extras.append((key, options[0]))
    return tuple(extras)


def _forms_by_surface(records):
    by_surface = {}
    for record in records:
        for form in record.forms:
            by_surface.setdefault(form.surface, []).append(form)
    return by_surface


def _entry_from_records(lemma, category, records, conflicts):
    label = "%s/%s" % (lemma, category.value)
    if category in INVARIABLE_CATEGORIES:
        forms = (WordForm(surface=lemma),)
    else:
        by_surface = _forms_by_surface(records)
        forms = []
        for surface in sorted(by_surface):
            merged = _merge_surface(surface, by_surface[surface], label, conflicts)
            if merged is not None:
                forms.append(merged)
        if not forms:
            # Lemma-only records still yield a usable entry.
            forms = [WordForm(surface=lemma)]
        forms = tuple(sorted(forms, key=_form_key))
    return LexicalEntry(
        lemma=lemma,
        category=category,
        forms=forms,
        adverb_class=_pick_adverb_class(records, label, conflicts),
        reflexive_capable=any(r.reflexive_capable for r in records),
        extras=_merge_extras(records, label, conflicts),
    ).validate()


def unify_entries(a, b):
    """Merge two entries for the same lemma and category.

    Returns the unified entry, or None when any shared surface carries
    irreconcilable feature bundles. Raises ValueError when the entries do
    not describe the same word.
    """
    if a.lemma != b.lemma or a.category is not b.category:
        raise ValueError(
            "cannot unify %r/%s with %r/%s"
            % (a.lemma, a.category.value, b.lemma, b.category.value)
        )
    # Unlike merge, a pair keeps no majority reading: any split surface fails.
    if a.category not in INVARIABLE_CATEGORIES and any(
        len(_cluster_forms(forms)) > 1 for forms in _forms_by_surface((a, b)).values()
    ):
        return None
    records = [
        SourceRecord(
            source_id="",
            lemma=entry.lemma,
            category=entry.category.value,
            forms=entry.forms,
            adverb_class=entry.adverb_class.value if entry.adverb_class else None,
            reflexive_capable=entry.reflexive_capable,
            extras=entry.extras,
        )
        for entry in (a, b)
    ]
    return _entry_from_records(a.lemma, a.category, records, [])


def _is_valid_alone(lemma, category, record):
    try:
        _entry_from_records(lemma, category, [record], [])
    except ValueError:
        return False
    return True


def merge(record_sets, report=None):
    """Merge verified record sets into one lexicon.

    Records sharing (lemma, category) anywhere are pooled and unified; a
    lone record goes through the same path, so its own incompatible
    readings are reported too. The result does not depend on the order of
    the record sets. A merged entry that fails validation raises
    LexiconError naming its lemma, category and the sources of the records
    that fail alone, or every source of the group when only the pooled
    forms are invalid.
    """
    if report is None:
        report = MergeReport()
    groups = {}
    for records in record_sets:
        for record in records:
            category = map_category(record.category)
            if category is None:
                continue
            groups.setdefault((record.lemma, category), []).append(record)

    entries = []
    for (lemma, category) in sorted(groups, key=lambda key: (key[0], key[1].value)):
        records = groups[(lemma, category)]
        if len(records) == 1:
            report.merged_unique += 1
        else:
            report.merged_common += 1
        try:
            entry = _entry_from_records(lemma, category, records, report.conflicts)
        except ValueError as exc:
            culprits = [r for r in records if not _is_valid_alone(lemma, category, r)]
            sources = ", ".join(sorted({r.source_id for r in culprits or records}))
            raise LexiconError(
                "%s/%s from %s: %s" % (lemma, category.value, sources, exc)
            ) from exc
        entries.append(entry)
    return Lexicon.from_entries(entries), report


def build_lexicon(primary_path, expansion_path, oracle):
    """Full pipeline: load, extract/expand, verify, merge; returns (lexicon, report)."""
    report = MergeReport()
    primary = load_source_records(primary_path)
    expansion_index = build_expansion_index(load_source_records(expansion_path))
    primary_set, expansion_set = extract_and_map(primary, expansion_index, report)
    verified_primary = verify(primary_set, oracle, report)
    verified_expansion = verify(expansion_set, oracle, report)
    return merge([verified_primary, verified_expansion], report)
