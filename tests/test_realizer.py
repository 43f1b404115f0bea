
import cProfile
import os
import pstats

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from make_golden import HAND_WRITTEN

from fraseo import realizer
from fraseo.errors import LexiconParseError, PlanningError
from fraseo.features import (
    EMPTY_BUNDLE,
    FeatureBundle,
    Gender,
    LexicalCategory,
    Mood,
    Number,
    Person,
    Tense,
)
from fraseo.grammar import parse_grammar
from fraseo.lexicon import Lexicon, LexicalEntry, WordForm, inflect, lookup_form
from fraseo.lm import NGramModel
from fraseo.pipeline import generate
from fraseo.planner import (
    NO_AGREEMENT,
    SentenceMode,
    SlotFill,
    check_grammar,
    plan_structures,
    select_tense,
    tokenize_and_resolve,
)
from fraseo.realizer import (
    PROVENANCE_DEFAULT,
    PROVENANCE_SUBJECT,
    AgreementResult,
    apply_contractions,
    _negate,
    infer_agreement,
    load_polarity_pairs,
    realize,
)


def fill_for(lexicon, surface, category):
    for entry, form in lookup_form(lexicon, surface):
        if entry.category is category:
            return SlotFill(category=category, surface=surface, entry=entry, form=form)
    raise AssertionError("no %s reading for %r" % (category.value, surface))


def heads(lexicon, *surfaces):
    out = []
    for index, surface in enumerate(surfaces):
        if index:
            out.append(fill_for(lexicon, "y", LexicalCategory.conjunction))
        category = LexicalCategory.pronoun
        hits = lookup_form(lexicon, surface)
        if any(entry.category is LexicalCategory.noun for entry, _ in hits):
            category = LexicalCategory.noun
        out.append(fill_for(lexicon, surface, category))
    return out


def test_agreement_empty_subject_defaults(lexicon):
    result = infer_agreement([])
    assert (result.person, result.number, result.gender) == (
        Person.first,
        Number.singular,
        Gender.masculine,
    )
    assert result.provenance["person"] == PROVENANCE_DEFAULT
    assert str(result) == "person=first number=singular gender=masculine"


def test_agreement_person_priority(lexicon):
    first = infer_agreement(heads(lexicon, "cuidadora", "nosotros"))
    assert first.person is Person.first
    assert first.number is Number.plural
    assert first.gender is Gender.masculine
    second = infer_agreement(heads(lexicon, "tú", "ella"))
    assert second.person is Person.second
    third = infer_agreement(heads(lexicon, "perro", "gato"))
    assert third.person is Person.third
    assert third.number is Number.plural  # coordination forces plural


def test_agreement_number_from_plural_head(lexicon):
    assert infer_agreement(heads(lexicon, "niñas")).number is Number.plural
    assert infer_agreement(heads(lexicon, "niña")).number is Number.singular


def test_agreement_gender_all_feminine_rule(lexicon):
    assert infer_agreement(heads(lexicon, "niña", "abuela")).gender is Gender.feminine
    assert infer_agreement(heads(lexicon, "niña", "perro")).gender is Gender.masculine
    result = infer_agreement(heads(lexicon, "niña"))
    assert result.gender is Gender.feminine
    assert result.provenance["gender"] == PROVENANCE_SUBJECT


def test_select_tense_from_time_adverbs(lexicon):
    assert select_tense(tokenize_and_resolve(["comer", "ayer"], lexicon)) is Tense.past
    assert select_tense(tokenize_and_resolve(["comer", "mañana"], lexicon)) is Tense.future
    assert select_tense(tokenize_and_resolve(["comer", "bien"], lexicon)) is Tense.present
    assert select_tense(tokenize_and_resolve(["comer"], lexicon)) is Tense.present


def test_polarity_pairs_load():
    pairs = load_polarity_pairs()
    assert pairs["siempre"] == "nunca"
    assert pairs["también"] == "tampoco"
    assert pairs["algo"] == "nada"
    assert pairs["alguien"] == "nadie"


@pytest.mark.parametrize(
    "line", ["alguien nadie", "algo\t", "\tnada", "algo\tnada\textra", "algo\tnada\t"]
)
def test_polarity_pairs_reject_a_line_without_both_words(tmp_path, line):
    """A line holds exactly two non-empty tab-separated words."""
    path = tmp_path / "pairs.txt"
    path.write_text("# positive<TAB>negative\nsiempre\tnunca\n%s\n" % line, encoding="utf-8")
    with pytest.raises(LexiconParseError, match=r"line 3: .*pairs\.txt: bad polarity pair line"):
        load_polarity_pairs(path)


def test_polarity_pairs_reject_a_repeated_positive_word(tmp_path):
    """A second line for a positive word names both lines instead of silently winning."""
    path = tmp_path / "pairs.txt"
    path.write_text("siempre\tnunca\nalgo\tnada\nsiempre\tjamás\n", encoding="utf-8")
    with pytest.raises(
        LexiconParseError,
        match=r"line 3: .*pairs\.txt: repeated positive word 'siempre' \(first on line 1\)",
    ):
        load_polarity_pairs(path)


def test_contractions_fuse_pinned_pairs():
    assert apply_contractions(["voy", "a", "el", "colegio"]) == ["voy", "al", "colegio"]
    assert apply_contractions(["la", "barriga", "de", "el", "lobo"]) == [
        "la",
        "barriga",
        "del",
        "lobo",
    ]
    assert apply_contractions(["come", "con", "yo"]) == ["come", "conmigo"]
    assert apply_contractions(["habla", "con", "ti"]) == ["habla", "contigo"]
    assert apply_contractions(["lleva", "algo", "con", "sí"]) == ["lleva", "algo", "consigo"]
    assert apply_contractions([]) == []
    assert apply_contractions(["de", "la", "casa"]) == ["de", "la", "casa"]


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(
        st.sampled_from(
            ["a", "el", "de", "con", "yo", "ti", "sí", "la", "los", "casa", "al", "del"]
        ),
        max_size=8,
    )
)
def test_contractions_idempotent(words):
    once = apply_contractions(words)
    assert apply_contractions(once) == once


def test_negation_inserts_before_finite_verb(resources):
    words = ["yo", "voy", "siempre", "a", "el", "teatro"]
    trace = []
    negated = _negate(words, load_polarity_pairs(), 1, 1, trace)
    assert negated == ["yo", "no", "voy", "nunca", "a", "el", "teatro"]
    assert apply_contractions(negated) == ["yo", "no", "voy", "nunca", "al", "teatro"]
    assert trace == ["polarity siempre -> nunca", "negation no before voy"]
    result = realize_top(resources, ["yo", "ir", "siempre", "teatro", "no"])
    assert result.text == "Yo no voy nunca al teatro."


def test_negation_keeps_clitic_attached(resources):
    words = ["mamá", "se", "seca", "el", "pelo"]
    trace = []
    negated = _negate(words, load_polarity_pairs(), 1, 2, trace)
    assert negated == ["mamá", "no", "se", "seca", "el", "pelo"]
    assert trace == ["negation no before seca"]
    result = realize_top(resources, ["mamá", "secar", "pelo", "no"])
    assert result.text == "La mamá no se seca el pelo."
    assert "negation no before seca" in result.trace


@pytest.mark.parametrize(
    "words, text, anchor",
    [
        (["yo", "se", "lavar", "no"], "Yo no me lavo.", "lavo"),
        (["yo", "se", "lavar", "no", "?"], "¿Yo no me lavo?", "lavo"),
        (["nosotros", "se", "lavar", "no"], "Nosotros no nos lavamos.", "lavamos"),
        (["tú", "se", "secar", "pelo", "no"], "Tú no te secas el pelo.", "secas"),
    ],
)
def test_negation_keeps_every_clitic_attached(resources, words, text, anchor):
    """``no`` goes before the clitic ``realize`` inserted, whatever its person."""
    result = realize_top(resources, words)
    assert result.text == text
    assert "negation no before %s" % anchor in result.trace


def test_negation_anchor_reads_after_polarity_swap(resources):
    """A polarity table may rewrite the verb; the trace names the new word."""
    plan = top_plan(resources, ["mamá", "secar", "pelo", "no"])
    result = realize(plan, {"seca": "moja"})
    assert result.text == "La mamá no se moja el pelo."
    assert result.trace[-3:-1] == ("polarity seca -> moja", "negation no before moja")


def test_negation_noop_for_affirmative(resources):
    plan = top_plan(resources, ["yo", "ir", "siempre", "teatro"])
    texts = {}
    for mode in SentenceMode:
        result = realize(plan.replaced(mode=mode), resources.polarity_pairs)
        texts[mode] = result.text
        if not mode.is_negative:
            assert not any(line.startswith(("negation", "polarity")) for line in result.trace)
    assert texts[SentenceMode.affirmative] == "Yo voy siempre al teatro."
    assert texts[SentenceMode.interrogative] == "¿Yo voy siempre al teatro?"
    assert texts[SentenceMode.negative] == "Yo no voy nunca al teatro."


def test_negation_without_finite_verb_prepends():
    trace = []
    pairs = load_polarity_pairs()
    assert _negate(["caminar"], pairs, 0, 0, trace) == ["no", "caminar"]
    assert trace == ["negation no before caminar"]
    # The anchor is the first word as it reads after the polarity swap.
    trace = []
    assert _negate(["siempre", "caminar"], pairs, 0, 0, trace) == ["no", "nunca", "caminar"]
    assert trace == ["polarity siempre -> nunca", "negation no before nunca"]


def top_plan(resources, words):
    tokens = tokenize_and_resolve(words, resources.lexicon)
    return plan_structures(tokens, resources.grammar, resources.lexicon, resources.lm)[0]


def realize_top(resources, words):
    return realize(top_plan(resources, words), resources.polarity_pairs)


def test_realize_contraction_in_trace(resources):
    result = realize_top(resources, ["él", "comer", "con", "yo"])
    assert result.text == "Él come conmigo."
    assert "contraction con yo -> conmigo" in result.trace


def test_realize_question_orthography(resources):
    result = realize_top(resources, ["pájaros", "poder", "volar", "?"])
    assert result.text == "¿Los pájaros pueden volar?"
    assert result.text.startswith("¿") and result.text.endswith("?")


def test_realize_past_tense_from_adverb(resources):
    result = realize_top(resources, ["yo", "comer", "ayer"])
    assert result.text == "Yo comí ayer."
    assert "tense past" in result.trace


def test_realize_reflexive_clitic_from_usage_model(resources):
    result = realize_top(resources, ["mamá", "secar", "pelo"])
    assert "se seca" in result.text
    assert any(line == "reflexive clitic se" for line in result.trace)


def test_realize_capitalizes_oov_as_proper_name(resources):
    result = realize_top(resources, ["ana", "ir", "colegio"])
    assert result.text.startswith("Ana ")
    assert any(line.startswith("proper name") for line in result.trace)


def test_realize_subject_agreement_reinflects_adjective(resources):
    result = realize_top(resources, ["niñas", "ser", "contento"])
    assert result.text == "Las niñas son contentas."


# Under the bundled rules plus ``OBJ -> SADJ``, an adjective object agrees
# with nothing; the plural subject tells that apart from subject agreement.
@pytest.mark.parametrize(
    "subject, text", [("perro", "El perro come rojo."), ("niñas", "Las niñas comen rojo.")]
)
def test_realize_leaf_with_no_agreement_takes_the_empty_target(
    subject, text, resources, data_dir
):
    """An adjective the plan ties to no noun inflects for ``EMPTY_BUNDLE``."""
    rules = (data_dir / "spanish.grammar").read_text(encoding="utf-8") + "OBJ -> SADJ\n"
    grammar = parse_grammar(rules)
    check_grammar(grammar, "spanish.grammar + OBJ -> SADJ")
    tokens = tokenize_and_resolve([subject, "comer", "rojas"], resources.lexicon)
    plans = plan_structures(tokens, grammar, resources.lexicon, resources.lm)
    (plan,) = [plan for plan in plans if plan.tree.children[1].children[1].symbol == "OBJ"
               and len(plan.slot_assignment) == 4]
    assert plan.agreement_targets[3] == NO_AGREEMENT
    adjective = plan.slot_assignment[3]
    assert adjective.category is LexicalCategory.adjective and adjective.surface == "rojas"
    result = realize(plan, resources.polarity_pairs)
    assert result.text == text
    assert result.text.split()[-1] == inflect(adjective.entry, EMPTY_BUNDLE) + "."


def test_realize_inflection_miss_keeps_surface():
    feminine_singular = FeatureBundle(gender=Gender.feminine, number=Number.singular)
    feminine_plural = FeatureBundle(gender=Gender.feminine, number=Number.plural)
    lexicon = Lexicon.from_entries(
        [
            LexicalEntry(
                lemma="nadar",
                category=LexicalCategory.verb,
                forms=(WordForm("nadar", FeatureBundle(mood=Mood.infinitive)),),
            ),
            LexicalEntry(
                lemma="la",
                category=LexicalCategory.determiner,
                forms=(WordForm("la", feminine_singular),),
            ),
            LexicalEntry(
                lemma="casa",
                category=LexicalCategory.noun,
                forms=(WordForm("casas", feminine_plural),),
            ),
        ]
    )
    grammar = parse_grammar("S -> PRED\nPRED -> verb\nPRED -> verb SN\nSN -> determiner noun\n")
    tokens = tokenize_and_resolve(["nadar"], lexicon)
    plans = plan_structures(tokens, grammar, lexicon, NGramModel())
    elided = [plan for plan in plans if plan.subject_leaf_count == 0]
    result = realize(elided[0], {})
    assert result.text == "Nadar."
    assert any(line.startswith("inflection miss nadar") for line in result.trace)
    # A determiner with no form agreeing with its plural noun keeps its surface.
    tokens = tokenize_and_resolve(["nadar", "la", "casas"], lexicon)
    (plan,) = plan_structures(tokens, grammar, lexicon, NGramModel())
    result = realize(plan, {})
    assert result.text == "Nadar la casas."
    assert "inflection miss la kept la" in result.trace


def test_equal_subjects_share_one_read_only_agreement(lexicon):
    first = infer_agreement(heads(lexicon, "niña"))
    assert infer_agreement(heads(lexicon, "abuela")) is first
    with pytest.raises(TypeError):
        first.provenance["gender"] = PROVENANCE_DEFAULT
    assert first.provenance["gender"] == PROVENANCE_SUBJECT
    assert infer_agreement(heads(lexicon, "niña", "perro")) is not first


def test_lexicons_sharing_an_entry_key_inflect_apart(resources):
    """``inflect`` remembers surfaces on each entry, not per (lemma, category)."""

    def shouted(entry):
        if (entry.lemma, entry.category) != ("comer", LexicalCategory.verb):
            return entry
        return entry.replaced(
            forms=tuple(form.replaced(surface=form.surface.upper()) for form in entry.forms)
        )

    other = resources.replaced(
        lexicon=Lexicon.from_entries(map(shouted, resources.lexicon.entries))
    )
    for _ in range(2):
        assert generate(["perro", "comer"], resources).candidates[0].text == "El perro come."
        assert generate(["perro", "comer"], other).candidates[0].text == "El perro COME."


# Plans of one pass over the 20 hand-written keyword lists. Realizing them
# built 392 FeatureBundles and 135 AgreementResults before agreement was
# interned and the inflection targets tabled.
CORPUS_PLANS = 135


def corpus_plans(resources):
    plans = []
    for words in HAND_WRITTEN:
        try:
            tokens = tokenize_and_resolve(words, resources.lexicon)
            plans += plan_structures(tokens, resources.grammar, resources.lexicon, resources.lm)
        except PlanningError:
            continue
    assert len(plans) == CORPUS_PLANS
    return plans


def test_a_warm_realization_pass_builds_no_value(resources, monkeypatch):
    plans = corpus_plans(resources)
    built = {FeatureBundle: 0, AgreementResult: 0}

    def count(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)

    count(FeatureBundle)
    count(AgreementResult)
    monkeypatch.setattr(realizer, "_AGREEMENTS", {})
    cold = [realize(plan, resources.polarity_pairs) for plan in plans]
    agreements = [infer_agreement(plan.subject_fills) for plan in plans]
    keys = {
        (result.person, result.number, result.gender, tuple(result.provenance.items()))
        for result in agreements
    }
    # One AgreementResult per distinct subject key, shared by every plan with it.
    assert built[AgreementResult] == len(keys) == len({id(result) for result in agreements}) == 8
    for counter in built:
        built[counter] = 0
    warm = [realize(plan, resources.polarity_pairs) for plan in plans]
    assert built == {FeatureBundle: 0, AgreementResult: 0}
    assert warm == cold


def test_a_warm_realization_pass_reads_no_enum_value(resources):
    """``Enum.value`` and ``Enum.__hash__`` are Python-level: the trace lines are
    built once, and the mode and feature enums hash by identity."""
    plans = corpus_plans(resources)
    for plan in plans:
        realize(plan, resources.polarity_pairs)
    profile = cProfile.Profile()
    profile.runcall(lambda: [realize(plan, resources.polarity_pairs) for plan in plans])
    calls = {
        (os.path.basename(path), name): stats[1]
        for (path, _line, name), stats in pstats.Stats(profile).stats.items()
    }
    assert calls[("realizer.py", "realize")] == CORPUS_PLANS
    assert calls.get(("enum.py", "__get__"), 0) == 0
    assert calls.get(("enum.py", "__hash__"), 0) == 0
