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

Absent attributes mean the axis is unspecified. An entry's ``reflexive``
attribute is ``true`` or ``false`` in any case, and absent means false.
``x-`` prefixed entry attributes are carried as extras.
``fileio.read_elements`` reads this format: ``load_lexicon`` and the
builder's source loader each hand it a per-entry callback built on
``parse_forms``, ``parse_reflexive`` and ``parse_extras``.
"""

import xml.etree.ElementTree as ET

from .errors import InflectionMiss, LexiconConflictError, LexiconParseError
from .features import (
    EMPTY_BUNDLE,
    INVARIABLE_CATEGORIES,
    AdverbClass,
    FeatureBundle,
    Gender,
    LexicalCategory,
    Mood,
    Number,
    Person,
    Tense,
    Value,
)
from .fileio import element_lines, read_elements, write_text_atomic

# <form> attribute codes per feature axis; the attribute names are the axes.
FORM_CODES = {
    "gender": {"m": Gender.masculine, "f": Gender.feminine},
    "number": {"s": Number.singular, "p": Number.plural},
    "person": {"1": Person.first, "2": Person.second, "3": Person.third},
    "tense": {
        "pres": Tense.present,
        "past": Tense.past,
        "fut": Tense.future,
        "cond": Tense.conditional,
    },
    "mood": {
        "ind": Mood.indicative,
        "subj": Mood.subjunctive,
        "imp": Mood.imperative,
        "inf": Mood.infinitive,
        "ger": Mood.gerund,
        "part": Mood.participle,
    },
}

_CODE_FOR = {value: code for codes in FORM_CODES.values() for code, value in codes.items()}

# The feature enum members LexicalEntry.validate reads, bound at import (the
# rule of features.IdentityEnum).
_PROPER_NAME_CATEGORY = LexicalCategory.proper_name
_ADVERB_CATEGORY = LexicalCategory.adverb
_VERB_CATEGORY = LexicalCategory.verb


class WordForm(Value):
    __slots__ = ("surface", "features")
    _defaults = {"features": EMPTY_BUNDLE}


class LexicalEntry(Value):
    """One lemma of one category with its forms.

    ``adverb_class`` is an AdverbClass, adverbs only; ``extras`` holds the
    ``((key, value), ...)`` pairs carried through merges. ``_surfaces``, not
    a field, is ``inflect``'s memo for this entry: ``_derive`` starts it
    empty, and it maps each target FeatureBundle to its surface.
    """

    _fields = ("lemma", "category", "forms", "adverb_class", "reflexive_capable", "extras")
    __slots__ = _fields + ("_surfaces",)
    _defaults = {"adverb_class": None, "reflexive_capable": False, "extras": ()}

    def _derive(self):
        self._surfaces = {}

    def validate(self):
        if not self.lemma:
            raise ValueError("entry lemma must be non-empty")
        if self.category is _PROPER_NAME_CATEGORY:
            raise ValueError("proper_name is a runtime category and cannot be stored")
        if not self.forms:
            raise ValueError("entry %r must hold at least one form" % self.lemma)
        if self.category in INVARIABLE_CATEGORIES:
            if len(self.forms) != 1 or self.forms[0].surface != self.lemma:
                raise ValueError(
                    "invariable entry %r must hold exactly one form equal to its lemma"
                    % self.lemma
                )
        if self.adverb_class is not None and self.category is not _ADVERB_CATEGORY:
            raise ValueError("adverb_class only applies to adverbs (%r)" % self.lemma)
        if self.reflexive_capable and self.category is not _VERB_CATEGORY:
            raise ValueError("reflexive_capable only applies to verbs (%r)" % self.lemma)
        for form in self.forms:
            form.features.validate()
        return self


class Lexicon(Value):
    """A tuple of entries in file order, indexed by lemma and by surface.

    The entries are the one field. ``_derive`` builds the rest from them:
    ``lemma_index`` maps a lemma to the tuple of its entries and
    ``form_index`` a surface to the tuple of its (entry, form) pairs, both
    in file order; a repeated (lemma, category) raises
    LexiconConflictError, whose ``.positions`` are the two entries'
    indices. ``interned`` is the planner's table of what it resolves from
    a word alone (see ``planner.tokenize_and_resolve``); it starts empty.
    So a ``replaced`` copy is indexed afresh, and two lexica with equal
    entries are equal.
    """

    _fields = ("entries",)
    __slots__ = _fields + ("lemma_index", "form_index", "interned")

    def _derive(self):
        first_index = {}
        self.lemma_index = lemma_index = {}
        self.form_index = form_index = {}
        for index, entry in enumerate(self.entries):
            key = (entry.lemma, entry.category)
            if key in first_index:
                error = LexiconConflictError(
                    "duplicate entry for lemma %r category %s"
                    % (entry.lemma, entry.category.value)
                )
                error.positions = (first_index[key], index)
                raise error
            first_index[key] = index
            lemma_index[entry.lemma] = lemma_index.get(entry.lemma, ()) + (entry,)
            for form in entry.forms:
                form_index[form.surface] = form_index.get(form.surface, ()) + ((entry, form),)
        self.interned = {}

    @classmethod
    def from_entries(cls, entries):
        return cls(tuple(entries))

    def __len__(self):
        return len(self.entries)


def lookup_lemma(lexicon, lemma, category=None):
    """Entries for ``lemma`` in file order, optionally of one category only."""
    entries = lexicon.lemma_index.get(lemma, ())
    if category is None:
        return entries
    return tuple(entry for entry in entries if entry.category is category)


def lookup_form(lexicon, surface):
    """(entry, form) pairs whose surface equals ``surface`` exactly."""
    return lexicon.form_index.get(surface, ())


def inflect(entry, target):
    """Surface of the first form compatible with ``target``.

    Axes left unspecified on either side match anything; ties resolve to the
    earliest form in entry order. Raises InflectionMiss when nothing fits.
    A found surface is remembered in the entry's ``_surfaces``, keyed by
    ``target``.
    """
    surfaces = entry._surfaces
    surface = surfaces.get(target)
    if surface is not None:
        return surface
    for form in entry.forms:
        if form.features.matches(target):
            surfaces[target] = form.surface
            return form.surface
    raise InflectionMiss(entry, target)


def parse_forms(element, lemma):
    """The <form> children of an <entry> element as a tuple of WordForms."""
    forms = []
    for child in element:
        if child.tag != "form":
            raise LexiconParseError(
                "unexpected element <%s> under entry %r" % (child.tag, lemma)
            )
        surface = child.get("surface")
        if not surface:
            raise LexiconParseError("form without surface under entry %r" % lemma)
        bundle = {}
        for axis, codes in FORM_CODES.items():
            raw = child.get(axis)
            if raw is None:
                continue
            if raw not in codes:
                raise LexiconParseError("bad %s code %r" % (axis, raw))
            bundle[axis] = codes[raw]
        forms.append(WordForm(surface=surface, features=FeatureBundle(**bundle)))
    return tuple(forms)


def parse_extras(element):
    """The ``x-`` prefixed attributes of an <entry> element as (key, value) pairs."""
    return tuple(
        (key[2:], value) for key, value in element.attrib.items() if key.startswith("x-")
    )


def parse_reflexive(element):
    """The ``reflexive`` attribute of an <entry> element as a bool.

    Absent gives False; ``true`` or ``false``, in any case, gives that
    value; anything else raises LexiconParseError.
    """
    raw = element.get("reflexive", "false")
    if raw.lower() not in ("true", "false"):
        raise LexiconParseError("bad reflexive value %r (true or false)" % raw)
    return raw.lower() == "true"


def parse_entry_element(element):
    """Build a validated LexicalEntry from an <entry> element."""
    lemma = element.get("lemma", "")
    raw_cat = element.get("cat", "")
    try:
        category = LexicalCategory(raw_cat)
    except ValueError:
        raise LexiconParseError("unknown category %r for lemma %r" % (raw_cat, lemma))
    adverb_class = None
    raw_class = element.get("adverb-class")
    if raw_class is not None:
        try:
            adverb_class = AdverbClass(raw_class)
        except ValueError:
            raise LexiconParseError(
                "unknown adverb-class %r for lemma %r" % (raw_class, lemma)
            )
    try:
        return LexicalEntry(
            lemma=lemma,
            category=category,
            forms=parse_forms(element, lemma),
            adverb_class=adverb_class,
            reflexive_capable=parse_reflexive(element),
            extras=parse_extras(element),
        ).validate()
    except ValueError as exc:
        raise LexiconParseError(str(exc))


def load_lexicon(path):
    """Parse a lexicon XML file; duplicate (lemma, category) pairs are errors."""
    entries = read_elements(
        path,
        "lexicon",
        "entry",
        lambda element, root: parse_entry_element(element),
        LexiconParseError,
    )
    try:
        return Lexicon.from_entries(entries)
    except LexiconConflictError as exc:
        first, second = exc.positions
        lines = element_lines(path)
        raise LexiconConflictError(
            "%s (first seen on line %d)" % (exc.reason, lines[first + 1]), lines[second + 1], path
        ) from None


def bundle_attrs(features):
    """Feature bundle as the XML attribute dict used by <form> elements."""
    return {axis: _CODE_FOR[getattr(features, axis)] for axis in features.specified_axes()}


def entry_element(entry):
    attrs = {"lemma": entry.lemma, "cat": entry.category.value}
    if entry.adverb_class is not None:
        attrs["adverb-class"] = entry.adverb_class.value
    if entry.reflexive_capable:
        attrs["reflexive"] = "true"
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
