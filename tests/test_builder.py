import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraseo import builder
from fraseo.errors import LexiconParseError
from fraseo.features import AdverbClass, FeatureBundle, Gender, LexicalCategory, Number
from fraseo.lexicon import (
    LexicalEntry,
    WordForm,
    load_lexicon,
    lookup_form,
    lookup_lemma,
    save_lexicon,
)
from oracles import reference_unify_entries


@pytest.fixture(scope="module")
def source_a(bundled_fixtures):
    return builder.load_source_records(bundled_fixtures / "source_a.xml")


@pytest.fixture(scope="module")
def source_b(bundled_fixtures):
    return builder.load_source_records(bundled_fixtures / "source_b.xml")


@pytest.fixture(scope="module")
def oracle(bundled_fixtures):
    return builder.AllowlistOracle.load(bundled_fixtures / "allowlist.tsv")


@pytest.fixture()
def built(bundled_fixtures, oracle):
    return builder.build_lexicon(
        bundled_fixtures / "source_a.xml", bundled_fixtures / "source_b.xml", oracle
    )


def test_load_source_records_keeps_raw_categories(source_a):
    assert len(source_a) == 10
    by_lemma = {record.lemma: record for record in source_a}
    assert by_lemma["gato"].category == "verb"
    assert by_lemma["ay"].category == "interjection"
    assert all(record.source_id == "alpha" for record in source_a)


def test_source_reflexive_is_true_or_false(tmp_path):
    path = tmp_path / "source.xml"
    path.write_text(
        '<lexicon source="alpha">\n'
        '<entry lemma="secar" cat="verb" reflexive="True"><form surface="secar"/></entry>\n'
        '<entry lemma="lavar" cat="verb" reflexive="yes"><form surface="lavar"/></entry>\n'
        "</lexicon>\n",
        encoding="utf-8",
    )
    with pytest.raises(LexiconParseError) as err:
        builder.load_source_records(path)
    assert err.value.line == 3
    assert err.value.reason == "bad reflexive value 'yes' (true or false)"
    path.write_text(path.read_text(encoding="utf-8").replace("yes", "false"), encoding="utf-8")
    records = builder.load_source_records(path)
    assert [record.reflexive_capable for record in records] == [True, False]


def test_cross_reference_extras(source_b):
    by_lemma = {record.lemma: record for record in source_b}
    assert by_lemma["aposento"].related_lemmas() == ["aposentar"]
    assert by_lemma["casa"].related_lemmas() == []


def test_category_normalization_and_mapping():
    assert builder.normalize_category(" Proper Name ") == "proper_name"
    assert builder.map_category("noun") is LexicalCategory.noun
    assert builder.map_category("Proper-Name") is None
    assert builder.map_category("interjection") is None
    assert builder.map_category("numeral") is None
    assert builder.map_category("widget") is None


def test_extract_drops_and_expands(source_a, source_b):
    report = builder.MergeReport()
    index = builder.build_expansion_index(source_b)
    primary, expansion = builder.extract_and_map(source_a, index, report)
    assert report.dropped_records == 3
    assert len(primary) == 7
    # Expansion reaches the cross-referenced verb in a second wave.
    assert sorted({record.lemma for record in expansion}) == [
        "aposentar",
        "aposento",
        "casa",
        "gato",
    ]
    assert report.expansion_misses == 4


def test_expansion_cap_stops_mutual_references():
    def records(lemma, related):
        return [
            builder.SourceRecord(
                source_id="loop",
                lemma=lemma,
                category="noun",
                forms=(WordForm(lemma),),
                extras=(("related", related),),
            )
        ]

    primary = records("a0", "a1")
    chain = {}
    for index in range(50):
        chain["a%d" % index] = records("a%d" % index, "a%d" % (index + 1))
    report = builder.MergeReport()
    _, expansion = builder.extract_and_map(primary, chain, report)
    # One wave per hop, bounded by the cap.
    assert len(expansion) == builder.EXPANSION_CAP


def test_verify_filters_on_lemma_and_category(source_a, oracle, bundled_fixtures):
    report = builder.MergeReport()
    primary, _ = builder.extract_and_map(source_a, None, report)
    kept = builder.verify(primary, oracle, report)
    kept_lemmas = sorted(record.lemma for record in kept)
    assert kept_lemmas == ["aposento", "blanco", "casa", "lavar", "perro"]
    counts = report.counts_for("alpha")
    assert counts.verified_records == 5
    assert counts.rejected_records == 2
    # Idempotent: a second pass keeps everything it already accepted.
    again = builder.verify(kept, oracle)
    assert again == kept


@pytest.mark.parametrize("line", ["casa", "casa\t", "casa\t,", "casa\t , ", "\tnoun"])
def test_allowlist_rejects_a_line_without_lemma_or_category(tmp_path, line):
    path = tmp_path / "allowlist.tsv"
    path.write_text("# lemma<TAB>categories\nperro\tnoun\n%s\n" % line, encoding="utf-8")
    with pytest.raises(LexiconParseError) as raised:
        builder.AllowlistOracle.load(path)
    assert str(raised.value) == "line 3: %s: bad allowlist line" % path


def test_allowlist_keeps_every_line_of_a_repeated_lemma(tmp_path):
    path = tmp_path / "allowlist.tsv"
    path.write_text("casa\tnoun\nperro\tnoun\ncasa\tverb\ncasa\tnoun\n", encoding="utf-8")
    oracle = builder.AllowlistOracle.load(path)
    assert oracle.categories("casa") == {LexicalCategory.noun, LexicalCategory.verb}
    assert oracle.categories("perro") == {LexicalCategory.noun}


def test_full_build_report(built):
    _, report = built
    flat = report.to_flat_dict()
    assert flat["alpha_extracted_records"] == 7
    assert flat["alpha_verified_records"] == 5
    assert flat["alpha_rejected_records"] == 2
    assert flat["beta_extracted_records"] == 4
    assert flat["beta_verified_records"] == 4
    assert flat["dropped_records"] == 3
    assert flat["expansion_misses"] == 4
    assert flat["merged_common"] == 2
    assert flat["merged_unique"] == 5
    assert len(flat["conflicts"]) == 1
    assert "casa" in flat["conflicts"][0]


def test_merged_lexicon_contents(built):
    lexicon, _ = built
    assert sorted((e.lemma, e.category.value) for e in lexicon.entries) == [
        ("aposentar", "verb"),
        ("aposento", "noun"),
        ("blanco", "adjective"),
        ("casa", "noun"),
        ("gato", "noun"),
        ("lavar", "verb"),
        ("perro", "noun"),
    ]
    # The shared surface stays ambiguous across entries after the merge.
    hits = lookup_form(lexicon, "aposento")
    assert sorted(entry.category.value for entry, _ in hits) == ["noun", "verb"]
    noun_form = next(f for e, f in hits if e.category is LexicalCategory.noun)
    assert noun_form.features.gender is Gender.masculine
    assert noun_form.features.number is Number.singular
    # The tied reading was excluded, the compatible plural kept.
    assert lookup_form(lexicon, "casa") == ()
    casa = lookup_lemma(lexicon, "casa", LexicalCategory.noun)[0]
    assert [form.surface for form in casa.forms] == ["casas"]
    assert casa.forms[0].features.gender is Gender.feminine


def test_merge_is_order_invariant(source_a, source_b, oracle, tmp_path):
    report = builder.MergeReport()
    index = builder.build_expansion_index(source_b)
    primary, expansion = builder.extract_and_map(source_a, index, report)
    verified_primary = builder.verify(primary, oracle)
    verified_expansion = builder.verify(expansion, oracle)

    forward, _ = builder.merge([verified_primary, verified_expansion])
    backward, _ = builder.merge([verified_expansion, verified_primary])
    path_f = tmp_path / "forward.xml"
    path_b = tmp_path / "backward.xml"
    save_lexicon(forward, path_f)
    save_lexicon(backward, path_b)
    assert path_f.read_bytes() == path_b.read_bytes()


def test_merged_lexicon_round_trip(built, tmp_path):
    lexicon, _ = built
    path = tmp_path / "merged.xml"
    save_lexicon(lexicon, path)
    reloaded = load_lexicon(path)
    assert len(reloaded) == len(lexicon)
    surfaces = {form.surface for entry in lexicon.entries for form in entry.forms}
    for surface in surfaces:
        original = {
            (entry.lemma, entry.category, form.surface, form.features)
            for entry, form in lookup_form(lexicon, surface)
        }
        copied = {
            (entry.lemma, entry.category, form.surface, form.features)
            for entry, form in lookup_form(reloaded, surface)
        }
        assert original == copied
    assert reloaded == lexicon


def test_unify_entries_cases():
    noun_a = LexicalEntry(
        lemma="casa",
        category=LexicalCategory.noun,
        forms=(WordForm("casa", FeatureBundle(number=Number.singular)),),
    )
    noun_b = LexicalEntry(
        lemma="casa",
        category=LexicalCategory.noun,
        forms=(
            WordForm("casa", FeatureBundle(gender=Gender.feminine)),
            WordForm("casas", FeatureBundle(gender=Gender.feminine, number=Number.plural)),
        ),
    )
    merged = builder.unify_entries(noun_a, noun_b)
    assert [form.surface for form in merged.forms] == ["casa", "casas"]
    assert merged.forms[0].features.gender is Gender.feminine
    assert merged.forms[0].features.number is Number.singular

    conflicted = LexicalEntry(
        lemma="casa",
        category=LexicalCategory.noun,
        forms=(WordForm("casa", FeatureBundle(gender=Gender.masculine)),),
    )
    assert builder.unify_entries(noun_b, conflicted) is None

    other = LexicalEntry(
        lemma="gato", category=LexicalCategory.noun, forms=(WordForm("gato"),)
    )
    with pytest.raises(ValueError):
        builder.unify_entries(noun_a, other)


def test_single_record_conflicts_are_reported():
    record = builder.SourceRecord(
        source_id="x",
        lemma="casa",
        category="noun",
        forms=(
            WordForm("casa", FeatureBundle(gender=Gender.feminine)),
            WordForm("casa", FeatureBundle(gender=Gender.masculine)),
            WordForm("casas", FeatureBundle(gender=Gender.feminine, number=Number.plural)),
        ),
    )
    lexicon, report = builder.merge([[record]])
    assert report.merged_unique == 1
    assert lookup_form(lexicon, "casa") == ()
    assert [form.surface for form in lexicon.entries[0].forms] == ["casas"]
    assert len(report.conflicts) == 1
    assert "casa" in report.conflicts[0] and "excluded" in report.conflicts[0]


_BUNDLES = st.builds(
    FeatureBundle,
    gender=st.sampled_from(list(Gender)),
    number=st.sampled_from(list(Number)),
)
_FORMS = st.lists(
    st.builds(WordForm, st.sampled_from(["lema", "lemas", "lemo"]), _BUNDLES),
    min_size=1,
    max_size=4,
).map(tuple)
_EXTRAS = st.dictionaries(
    st.sampled_from(["related", "note"]), st.sampled_from(["a", "b"]), max_size=2
).map(lambda extras: tuple(extras.items()))


@st.composite
def _entry_pairs(draw):
    stored = [c for c in LexicalCategory if c is not LexicalCategory.proper_name]
    category = draw(st.sampled_from(stored))

    def entry(lemma):
        return LexicalEntry(
            lemma=lemma,
            category=category,
            forms=draw(_FORMS),
            adverb_class=draw(
                st.none() | st.sampled_from(list(AdverbClass))
                if category is LexicalCategory.adverb
                else st.none()
            ),
            reflexive_capable=category is LexicalCategory.verb and draw(st.booleans()),
            extras=draw(_EXTRAS),
        )

    return entry("lema"), entry(draw(st.sampled_from(["lema", "lema", "lema", "otro"])))


def _outcome(unify, a, b):
    try:
        return unify(a, b)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_entry_pairs())
def test_unify_entries_matches_reference(pair):
    a, b = pair
    assert _outcome(builder.unify_entries, a, b) == _outcome(reference_unify_entries, a, b)


def test_invariable_categories_collapse_to_lemma():
    record = builder.SourceRecord(
        source_id="x",
        lemma="de",
        category="preposition",
        forms=(WordForm("de"), WordForm("de", FeatureBundle(number=Number.singular))),
    )
    lexicon, _ = builder.merge([[record]])
    entry = lookup_lemma(lexicon, "de", LexicalCategory.preposition)[0]
    assert [form.surface for form in entry.forms] == ["de"]
    assert entry.forms[0].features == FeatureBundle()
