"""Inflection lexicon: entries, indexes, XML persistence, and inflection.

A lexicon maps lemmas to entries holding one or more inflected forms, each
annotated with a (possibly partial) feature bundle. Lookups run on two
indexes: lemma+category and exact surface form.

File format::

    <lexicon>
      <entry lemma="comer" cat="verb">
        <form surface="comer" mood="inf"/>
        <form surface="come" person="3" number="s" tense="pres" mood="ind"/>
      </entry>
      <entry lemma="ayer" cat="adverb" adverb-class="time_past">
        <form surface="ayer"/>
      </entry>
    </lexicon>

Absent attributes mean the axis is unspecified.
"""

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import InflectionMiss, LexiconConflictError, LexiconParseError
from .features import (
    INVARIABLE_CATEGORIES,
    AdverbClass,
    FeatureBundle,
    Gender,
    LexicalCategory,
    Mood,
    Number,
    Person,
    Tense,
)
from .fileio import write_text_atomic

GENDER_CODES = {"m": Gender.masculine, "f": Gender.feminine}
NUMBER_CODES = {"s": Number.singular, "p": Number.plural}
PERSON_CODES = {"1": Person.first, "2": Person.second, "3": Person.third}
TENSE_CODES = {
    "pres": Tense.present,
    "past": Tense.past,
    "fut": Tense.future,
    "cond": Tense.conditional,
}
MOOD_CODES = {
    "ind": Mood.indicative,
    "subj": Mood.subjunctive,
    "imp": Mood.imperative,
    "inf": Mood.infinitive,
    "ger": Mood.gerund,
    "part": Mood.participle,
}

_CODE_FOR = {}
for _codes in (GENDER_CODES, NUMBER_CODES, PERSON_CODES, TENSE_CODES, MOOD_CODES):
    for _code, _value in _codes.items():
        _CODE_FOR[_value] = _code


@dataclass(frozen=True)
class WordForm:
    surface: str
    features: FeatureBundle = FeatureBundle()


@dataclass(frozen=True)
class LexicalEntry:
    lemma: str
    category: LexicalCategory
    forms: tuple
    adverb_class: AdverbClass = None
    reflexive_capable: bool = False
    extras: tuple = ()  # ((key, value), ...) carried through merges

    def validate(self):
        if not self.lemma:
            raise ValueError("entry lemma must be non-empty")
        if self.category is LexicalCategory.proper_name:
            raise ValueError("proper_name is a runtime category and cannot be stored")
        if not self.forms:
            raise ValueError("entry %r must hold at least one form" % self.lemma)
        if self.category in INVARIABLE_CATEGORIES:
            if len(self.forms) != 1 or self.forms[0].surface != self.lemma:
                raise ValueError(
                    "invariable entry %r must hold exactly one form equal to its lemma"
                    % self.lemma
                )
        if self.adverb_class is not None and self.category is not LexicalCategory.adverb:
            raise ValueError("adverb_class only applies to adverbs (%r)" % self.lemma)
        if self.reflexive_capable and self.category is not LexicalCategory.verb:
            raise ValueError("reflexive_capable only applies to verbs (%r)" % self.lemma)
        for form in self.forms:
            form.features.validate()
        return self

    def extras_dict(self):
        return dict(self.extras)


@dataclass
class Lexicon:
    entries: tuple = ()
    lemma_index: dict = field(default_factory=dict)
    form_index: dict = field(default_factory=dict)

    @classmethod
    def from_entries(cls, entries):
        entries = tuple(entries)
        lemma_index = {}
        form_index = {}
        for entry in entries:
            key = (entry.lemma, entry.category)
            if key in lemma_index:
                raise LexiconConflictError(
                    "duplicate entry for lemma %r category %s"
                    % (entry.lemma, entry.category.value)
                )
            lemma_index[key] = entry
            for form in entry.forms:
                form_index.setdefault(form.surface, []).append((entry, form))
        return cls(entries=entries, lemma_index=lemma_index, form_index=form_index)

    def __len__(self):
        return len(self.entries)


def lookup_lemma(lexicon, lemma, category=None):
    """Entries for ``lemma``, optionally restricted to one category."""
    if category is not None:
        entry = lexicon.lemma_index.get((lemma, category))
        return (entry,) if entry is not None else ()
    return tuple(
        entry
        for (key_lemma, _), entry in lexicon.lemma_index.items()
        if key_lemma == lemma
    )


def lookup_form(lexicon, surface):
    """(entry, form) pairs whose surface equals ``surface`` exactly."""
    return tuple(lexicon.form_index.get(surface, ()))


def inflect(entry, target):
    """Surface of the first form compatible with ``target``.

    Axes left unspecified on either side match anything; ties resolve to the
    earliest form in entry order. Raises InflectionMiss when nothing fits.
    """
    for form in entry.forms:
        if form.features.matches(target):
            return form.surface
    raise InflectionMiss(entry, target)


def _parse_bundle(attrs, line):
    def decode(codes, key):
        raw = attrs.get(key)
        if raw is None:
            return None
        if raw not in codes:
            raise LexiconParseError("bad %s code %r" % (key, raw), line)
        return codes[raw]

    kwargs = {}
    for key, codes, axis in (
        ("gender", GENDER_CODES, "gender"),
        ("number", NUMBER_CODES, "number"),
        ("person", PERSON_CODES, "person"),
        ("tense", TENSE_CODES, "tense"),
        ("mood", MOOD_CODES, "mood"),
    ):
        value = decode(codes, key)
        if value is not None:
            kwargs[axis] = value
    return FeatureBundle(**kwargs)


def _entry_lines(path):
    """Line numbers of successive <entry openings, for error reporting."""
    lines = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, text in enumerate(handle, start=1):
                count = text.count("<entry")
                lines.extend([number] * count)
    except OSError:
        pass
    return lines


def parse_entry_element(element, line=None, extra_attrs=False):
    """Build a LexicalEntry from an <entry> element; shared with merge sources."""
    lemma = element.get("lemma", "")
    raw_cat = element.get("cat", "")
    try:
        category = LexicalCategory(raw_cat)
    except ValueError:
        raise LexiconParseError("unknown category %r for lemma %r" % (raw_cat, lemma), line)
    adverb_class = None
    raw_class = element.get("adverb-class")
    if raw_class is not None:
        try:
            adverb_class = AdverbClass(raw_class)
        except ValueError:
            raise LexiconParseError(
                "unknown adverb-class %r for lemma %r" % (raw_class, lemma), line
            )
    reflexive = element.get("reflexive", "false").lower() == "true"
    extras = []
    if extra_attrs:
        for key, value in element.attrib.items():
            if key.startswith("x-"):
                extras.append((key[2:], value))
    forms = []
    for child in element:
        if child.tag != "form":
            raise LexiconParseError(
                "unexpected element <%s> under entry %r" % (child.tag, lemma), line
            )
        surface = child.get("surface")
        if not surface:
            raise LexiconParseError("form without surface under entry %r" % lemma, line)
        forms.append(WordForm(surface=surface, features=_parse_bundle(child.attrib, line)))
    try:
        return LexicalEntry(
            lemma=lemma,
            category=category,
            forms=tuple(forms),
            adverb_class=adverb_class,
            reflexive_capable=reflexive,
            extras=tuple(extras),
        ).validate()
    except ValueError as exc:
        raise LexiconParseError(str(exc), line)


def load_lexicon(path):
    """Parse a lexicon XML file; duplicate (lemma, category) pairs are errors."""
    entry_lines = _entry_lines(path)
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise LexiconParseError("malformed XML: %s" % exc, line)
    root = tree.getroot()
    if root.tag != "lexicon":
        raise LexiconParseError("root element must be <lexicon>, got <%s>" % root.tag, 1)
    entries = []
    seen = {}
    for index, element in enumerate(root):
        line = entry_lines[index] if index < len(entry_lines) else None
        if element.tag != "entry":
            raise LexiconParseError("unexpected element <%s>" % element.tag, line)
        entry = parse_entry_element(element, line, extra_attrs=True)
        key = (entry.lemma, entry.category)
        if key in seen:
            raise LexiconConflictError(
                "duplicate entry for lemma %r category %s (first seen on line %s)"
                % (entry.lemma, entry.category.value, seen[key]),
                line,
            )
        seen[key] = line
        entries.append(entry)
    return Lexicon.from_entries(entries)


def bundle_attrs(features):
    """Feature bundle as the XML attribute dict used by <form> elements."""
    attrs = {}
    for key, value in (
        ("gender", features.gender),
        ("number", features.number),
        ("person", features.person),
        ("tense", features.tense),
        ("mood", features.mood),
    ):
        if value.value != "unspecified":
            attrs[key] = _CODE_FOR[value]
    return attrs


def entry_element(entry, source=None):
    attrs = {"lemma": entry.lemma, "cat": entry.category.value}
    if entry.adverb_class is not None:
        attrs["adverb-class"] = entry.adverb_class.value
    if entry.reflexive_capable:
        attrs["reflexive"] = "true"
    if source is not None:
        attrs["source"] = source
    for key, value in entry.extras:
        attrs["x-%s" % key] = value
    element = ET.Element("entry", attrs)
    for form in entry.forms:
        form_attrs = {"surface": form.surface}
        form_attrs.update(bundle_attrs(form.features))
        ET.SubElement(element, "form", form_attrs)
    return element


def save_lexicon(lexicon, path):
    """Write the lexicon back to XML atomically (temp file + rename)."""
    root = ET.Element("lexicon")
    for entry in lexicon.entries:
        root.append(entry_element(entry))
    ET.indent(root)
    write_text_atomic(path, ET.tostring(root, encoding="unicode") + "\n")
