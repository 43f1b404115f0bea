import xml.etree.ElementTree as ET

import pytest

from fraseo.errors import InflectionMiss, LexiconConflictError, LexiconParseError
from fraseo.features import (
    FeatureBundle,
    Gender,
    LexicalCategory,
    Mood,
    Number,
    Person,
    Tense,
)
from fraseo.lexicon import (
    LexicalEntry,
    Lexicon,
    WordForm,
    inflect,
    load_lexicon,
    lookup_form,
    lookup_lemma,
    parse_reflexive,
    save_lexicon,
)


def test_sample_lexicon_loads_with_indexes(lexicon):
    assert len(lexicon) > 100
    entries = lookup_lemma(lexicon, "el", LexicalCategory.determiner)
    assert len(entries) == 1
    assert {form.surface for form in entries[0].forms} == {"el", "la", "los", "las"}


def test_lookup_form_returns_entry_form_pairs(lexicon):
    hits = lookup_form(lexicon, "la")
    assert any(entry.lemma == "el" for entry, _ in hits)
    entry, form = next(
        (entry, form) for entry, form in hits if entry.category is LexicalCategory.determiner
    )
    assert form.features.gender is Gender.feminine
    assert form.features.number is Number.singular


def test_lookup_lemma_without_category_spans_categories(lexicon):
    entries = lookup_lemma(lexicon, "no")
    assert [entry.category for entry in entries] == [LexicalCategory.adverb]
    assert lookup_lemma(lexicon, "zzz-missing") == ()


def test_lookup_lemma_keeps_file_order_and_filters_category():
    def entry(lemma, category):
        return LexicalEntry(lemma=lemma, category=category, forms=(WordForm(lemma),))

    bajo_prep = entry("bajo", LexicalCategory.preposition)
    bajo_adj = entry("bajo", LexicalCategory.adjective)
    alto = entry("alto", LexicalCategory.adjective)
    lexicon = Lexicon.from_entries([bajo_prep, alto, bajo_adj])
    assert lookup_lemma(lexicon, "bajo") == (bajo_prep, bajo_adj)
    assert lookup_lemma(lexicon, "bajo", LexicalCategory.adjective) == (bajo_adj,)
    assert lookup_lemma(lexicon, "bajo", LexicalCategory.noun) == ()
    assert lookup_lemma(lexicon, "zzz-missing", LexicalCategory.noun) == ()
    with pytest.raises(LexiconConflictError):
        Lexicon.from_entries([bajo_adj, alto, bajo_adj])


def test_inflect_picks_matching_form(lexicon):
    el = lookup_lemma(lexicon, "el", LexicalCategory.determiner)[0]
    assert inflect(el, FeatureBundle(gender=Gender.feminine, number=Number.plural)) == "las"
    comer = lookup_lemma(lexicon, "comer", LexicalCategory.verb)[0]
    target = FeatureBundle(
        person=Person.first, number=Number.plural, tense=Tense.present, mood=Mood.indicative
    )
    assert inflect(comer, target) == "comemos"


def test_inflect_miss_raises_with_context(lexicon):
    comer = lookup_lemma(lexicon, "comer", LexicalCategory.verb)[0]
    with pytest.raises(InflectionMiss) as err:
        inflect(comer, FeatureBundle(tense=Tense.conditional, mood=Mood.indicative))
    assert "comer" in str(err.value)


def test_remembered_surfaces_are_not_a_field():
    forms = (
        WordForm("gato", FeatureBundle(gender=Gender.masculine, number=Number.singular)),
        WordForm("gatos", FeatureBundle(gender=Gender.masculine, number=Number.plural)),
    )
    used = LexicalEntry(lemma="gato", category=LexicalCategory.noun, forms=forms)
    fresh = LexicalEntry(lemma="gato", category=LexicalCategory.noun, forms=forms)
    plural = FeatureBundle(number=Number.plural)
    assert inflect(used, plural) == inflect(used, FeatureBundle(number=Number.plural)) == "gatos"
    assert LexicalEntry._fields == (
        "lemma", "category", "forms", "adverb_class", "reflexive_capable", "extras"
    )
    assert (used, hash(used), repr(used)) == (fresh, hash(fresh), repr(fresh))
    # A replaced copy starts with no remembered surfaces.
    with pytest.raises(InflectionMiss):
        inflect(used.replaced(forms=forms[:1]), plural)


def test_unspecified_form_axes_match_any_request(lexicon):
    rosa = lookup_lemma(lexicon, "rosa", LexicalCategory.adjective)[0]
    assert inflect(rosa, FeatureBundle(gender=Gender.feminine, number=Number.plural)) == "rosa"


def test_entry_validation_rules():
    noun = WordForm(surface="casa", features=FeatureBundle(gender=Gender.feminine))
    with pytest.raises(ValueError):
        LexicalEntry(lemma="", category=LexicalCategory.noun, forms=(noun,)).validate()
    with pytest.raises(ValueError):
        LexicalEntry(lemma="casa", category=LexicalCategory.noun, forms=()).validate()
    with pytest.raises(ValueError):
        LexicalEntry(
            lemma="Ana", category=LexicalCategory.proper_name, forms=(WordForm("Ana"),)
        ).validate()
    with pytest.raises(ValueError):
        LexicalEntry(
            lemma="de",
            category=LexicalCategory.preposition,
            forms=(WordForm("de"), WordForm("del")),
        ).validate()
    with pytest.raises(ValueError):
        LexicalEntry(
            lemma="casa",
            category=LexicalCategory.noun,
            forms=(noun,),
            reflexive_capable=True,
        ).validate()


def test_duplicate_entries_rejected():
    entry = LexicalEntry(
        lemma="casa", category=LexicalCategory.noun, forms=(WordForm("casa"),)
    )
    with pytest.raises(LexiconConflictError):
        Lexicon.from_entries([entry, entry])
    # The constructor itself indexes the entries, so it checks them too.
    with pytest.raises(LexiconConflictError) as err:
        Lexicon((entry, entry))
    assert err.value.positions == (0, 1)


def test_a_replaced_lexicon_is_indexed_from_its_entries():
    def entry(lemma):
        return LexicalEntry(lemma=lemma, category=LexicalCategory.noun, forms=(WordForm(lemma),))

    perro, gato = entry("perro"), entry("gato")
    both = Lexicon.from_entries([perro, gato])
    assert both.interned == {}
    both.interned["perro"] = "a planner token"
    cats = both.replaced(entries=(gato,))
    assert cats == Lexicon.from_entries([gato]) and hash(cats) == hash(Lexicon((gato,)))
    assert cats != both and cats.interned == {}
    assert lookup_lemma(cats, "perro") == () and lookup_form(cats, "perro") == ()
    assert lookup_lemma(cats, "gato") == (gato,)
    assert lookup_form(cats, "gato") == ((gato, gato.forms[0]),)
    assert repr(cats) == "Lexicon(entries=(%r,))" % gato


def test_malformed_xml_reports_line(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<lexicon>\n<entry lemma='x' cat='noun'>\n", encoding="utf-8")
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(path)
    assert err.value.line == 3
    assert str(path) in str(err.value)

    path.write_text('<?xml version="1.0"?>\n<lexica>\n</lexica>\n', encoding="utf-8")
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(path)
    assert err.value.line == 2


def test_unknown_category_and_bad_codes_rejected(tmp_path):
    path = tmp_path / "cat.xml"
    path.write_text(
        '<lexicon><entry lemma="x" cat="widget"><form surface="x"/></entry></lexicon>',
        encoding="utf-8",
    )
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(path)
    assert err.value.line == 1
    assert "widget" in str(err.value)

    path.write_text(
        '<lexicon><entry lemma="x" cat="noun"><form surface="x" gender="z"/></entry></lexicon>',
        encoding="utf-8",
    )
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(path)
    assert err.value.line == 1
    assert "bad gender code 'z'" in str(err.value)

    # Entry text inside a comment is not an entry and must not shift lines.
    path.write_text(
        "<lexicon>\n"
        '<!-- <entry lemma="x"> -->\n'
        '<entry lemma="a" cat="noun"><form surface="a"/></entry>\n'
        '<entry lemma="b" cat="noun">\n'
        '  <form surface="b"/>\n'
        "</entry>\n"
        '<entry lemma="c" cat="noun"><form surface="c" number="x"/></entry>\n'
        "</lexicon>\n",
        encoding="utf-8",
    )
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(path)
    assert err.value.line == 7
    assert str(path) in str(err.value)


def test_duplicate_lemma_category_in_file_rejected(tmp_path):
    path = tmp_path / "dup.xml"
    path.write_text(
        "<lexicon>\n"
        '<entry lemma="x" cat="noun"><form surface="x"/></entry>\n'
        "<!-- <entry> -->\n"
        '<entry lemma="x" cat="noun"><form surface="xs"/></entry>\n'
        "</lexicon>\n",
        encoding="utf-8",
    )
    with pytest.raises(LexiconConflictError) as err:
        load_lexicon(path)
    assert err.value.line == 4
    assert "first seen on line 2" in str(err.value)


def test_duplicate_names_both_entries(tmp_path):
    def entry(lemma, category):
        return LexicalEntry(lemma=lemma, category=category, forms=(WordForm(lemma),))

    noun = entry("casa", LexicalCategory.noun)
    entries = [noun, entry("casa", LexicalCategory.verb), entry("perro", LexicalCategory.noun)]
    with pytest.raises(LexiconConflictError) as err:
        Lexicon.from_entries(entries + [noun])
    assert str(err.value) == "duplicate entry for lemma 'casa' category noun"
    assert err.value.positions == (0, 3)

    path = tmp_path / "dup.xml"
    path.write_text(
        "<lexicon>\n"
        '<entry lemma="casa" cat="noun"><form surface="casa"/></entry>\n'
        '<entry lemma="casa" cat="verb"><form surface="casa"/></entry>\n'
        '<entry lemma="perro" cat="noun">\n'
        '  <form surface="perro"/>\n'
        "</entry>\n"
        '<entry lemma="casa" cat="noun"><form surface="casas"/></entry>\n'
        "</lexicon>\n",
        encoding="utf-8",
    )
    with pytest.raises(LexiconConflictError) as err:
        load_lexicon(path)
    assert str(err.value) == (
        "line 7: %s: duplicate entry for lemma 'casa' category noun (first seen on line 2)"
        % path
    )


def test_save_load_round_trip_preserves_queries(lexicon, tmp_path):
    path = tmp_path / "copy.xml"
    save_lexicon(lexicon, path)
    reloaded = load_lexicon(path)
    assert len(reloaded) == len(lexicon)
    for surface in ("la", "comemos", "lápices", "voy"):
        original = {
            (entry.lemma, entry.category, form.surface)
            for entry, form in lookup_form(lexicon, surface)
        }
        copied = {
            (entry.lemma, entry.category, form.surface)
            for entry, form in lookup_form(reloaded, surface)
        }
        assert original == copied
    assert reloaded == lexicon

    second = tmp_path / "copy2.xml"
    save_lexicon(reloaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_extras_round_trip(tmp_path):
    entry = LexicalEntry(
        lemma="casa",
        category=LexicalCategory.noun,
        forms=(WordForm("casa"),),
        extras=(("related", "casar"),),
    )
    path = tmp_path / "extras.xml"
    save_lexicon(Lexicon.from_entries([entry]), path)
    reloaded = load_lexicon(path)
    assert dict(reloaded.entries[0].extras) == {"related": "casar"}


@pytest.mark.parametrize(
    "attrs, expected",
    [("", False), (' reflexive="true"', True), (' reflexive="TRUE"', True),
     (' reflexive="False"', False)],
)
def test_parse_reflexive_reads_true_or_false_in_any_case(attrs, expected):
    element = ET.fromstring('<entry lemma="lavar" cat="verb"%s/>' % attrs)
    assert parse_reflexive(element) is expected


@pytest.mark.parametrize("value", ["yes", "1", ""])
def test_unwritten_reflexive_value_is_rejected_at_its_line(tmp_path, value):
    path = tmp_path / "bad.xml"
    path.write_text(
        "<lexicon>\n"
        '<entry lemma="lavar" cat="verb" reflexive="%s"><form surface="lavar"/></entry>\n'
        "</lexicon>\n" % value,
        encoding="utf-8",
    )
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(path)
    assert err.value.line == 2
    assert err.value.reason == "bad reflexive value %r (true or false)" % value
