import gc
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from make_golden import golden_inputs
from oracles import reference_covers

from fraseo import planner
from fraseo.errors import EmptyInputError, GrammarError, NoStructureError, NoVerbError
from fraseo.evaluation import load_corpus
from fraseo.features import FeatureBundle, LexicalCategory, Mood, Number, Person, Tense
from fraseo.grammar import TERMINAL_BITS, _Cover, covers, derive, parse_grammar
from fraseo.lexicon import LexicalEntry, Lexicon, WordForm
from fraseo.lm import NGramModel
from fraseo.pipeline import generate, load_default_resources
from fraseo.planner import (
    MARKER_NEGATION,
    MARKER_QUESTION,
    RATIONALE_DEFAULT_SUBJECT,
    RATIONALE_DETERMINER,
    SentenceMode,
    detect_mode,
    insert_default_subject,
    plan_structures,
    split_subject_predicate,
    tokenize_and_resolve,
)


def plans_for(words, resources, lm=None):
    tokens = tokenize_and_resolve(words, resources.lexicon)
    return plan_structures(
        tokens, resources.grammar, resources.lexicon, resources.lm if lm is None else lm
    )


def test_tokenize_separates_markers(lexicon):
    tokens = tokenize_and_resolve(["perro", "no", "?", "comer"], lexicon)
    assert [token.marker for token in tokens] == [
        None,
        MARKER_NEGATION,
        MARKER_QUESTION,
        None,
    ]
    assert LexicalCategory.noun in tokens[0].readings
    assert LexicalCategory.verb in tokens[3].readings
    assert tokens[1].readings == tokens[2].readings == {}


def lemmas(token, category):
    return [entry.lemma for entry, _form in token.readings.get(category, ())]


def test_tokenize_resolves_inflected_and_lemma_lookups(lexicon):
    tokens = tokenize_and_resolve(["Comemos", "lápices"], lexicon)
    assert "comer" in lemmas(tokens[0], LexicalCategory.verb)
    assert "lápiz" in lemmas(tokens[1], LexicalCategory.noun)


def test_tokenize_keeps_oov_words(lexicon):
    tokens = tokenize_and_resolve(["Ana", "comer"], lexicon)
    assert tokens[0].marker is None
    assert tokens[0].readings == {LexicalCategory.proper_name: ((None, None),)}


def test_readings_keep_every_category_of_a_surface():
    """A homograph reads as each of its categories, pairs in lexicon order."""

    def subjunctive(person):
        features = FeatureBundle(
            person=person, number=Number.singular, tense=Tense.present, mood=Mood.subjunctive
        )
        return WordForm("cante", features)

    sing = LexicalEntry(
        lemma="cantar",
        category=LexicalCategory.verb,
        forms=(
            WordForm("cantar", FeatureBundle(mood=Mood.infinitive)),
            subjunctive(Person.first),
            subjunctive(Person.third),
        ),
    )
    song = LexicalEntry(
        lemma="cante",
        category=LexicalCategory.noun,
        forms=(WordForm("cante", FeatureBundle(number=Number.singular)),),
    )
    (token,) = tokenize_and_resolve(["cante"], Lexicon.from_entries([sing, song]))
    assert list(token.readings) == [LexicalCategory.verb, LexicalCategory.noun]
    assert token.readings[LexicalCategory.verb] == ((sing, sing.forms[1]), (sing, sing.forms[2]))
    assert token.readings[LexicalCategory.noun] == ((song, song.forms[0]),)
    search = planner._Search(lexicon=None, lm=None, tokens=[token])
    both = TERMINAL_BITS["verb"] | TERMINAL_BITS["noun"]
    assert planner._lookahead(search, (0, None)) == (1, both)


def test_tokenize_requires_content(lexicon):
    with pytest.raises(EmptyInputError):
        tokenize_and_resolve(["no", "?"], lexicon)
    with pytest.raises(EmptyInputError):
        tokenize_and_resolve([], lexicon)
    with pytest.raises(EmptyInputError):
        tokenize_and_resolve(["  "], lexicon)


def test_detect_mode_marker_combinations(lexicon):
    words = ["perro", "comer"]
    assert detect_mode(tokenize_and_resolve(words, lexicon)) is SentenceMode.affirmative
    assert detect_mode(tokenize_and_resolve(words + ["no"], lexicon)) is SentenceMode.negative
    assert (
        detect_mode(tokenize_and_resolve(words + ["?"], lexicon))
        is SentenceMode.interrogative
    )
    assert (
        detect_mode(tokenize_and_resolve(words + ["no", "?"], lexicon))
        is SentenceMode.negative_interrogative
    )
    assert SentenceMode.negative_interrogative.is_negative
    assert SentenceMode.negative_interrogative.is_interrogative
    assert not SentenceMode.affirmative.is_negative


def test_split_at_first_verb_reading(lexicon):
    tokens = tokenize_and_resolve(["lobo", "comer", "niñas"], lexicon)
    subject, predicate = split_subject_predicate(tokens)
    assert [t.raw for t in subject] == ["lobo"]
    assert [t.raw for t in predicate] == ["comer", "niñas"]


def test_split_without_verb_raises(lexicon):
    tokens = tokenize_and_resolve(["lobo", "niñas"], lexicon)
    with pytest.raises(NoVerbError) as err:
        split_subject_predicate(tokens)
    assert "lobo" in str(err.value)


def test_insert_default_subject(lexicon):
    filled = insert_default_subject([], lexicon)
    assert len(filled) == 1
    assert filled[0].is_default_subject
    assert "yo" in lemmas(filled[0], LexicalCategory.pronoun)
    existing = tokenize_and_resolve(["perro"], lexicon)
    assert insert_default_subject(existing, lexicon) == existing


def test_default_subject_plan_preferred(resources):
    plans = plans_for(["dibujar", "animales"], resources)
    top = plans[0]
    assert top.deviations == 0
    assert [fill.surface for fill in top.slot_assignment] == ["yo", "dibujar", "animales"]
    assert any(r == RATIONALE_DEFAULT_SUBJECT for _, _, r in top.inserted)
    assert top.slot_assignment[1].entry.lemma == "dibujar"
    assert top.subject_leaf_count == 1
    assert len(top.subject_fills) == 1
    # The subjectless variant exists but ranks behind the default subject.
    elided = [p for p in plans if p.subject_leaf_count == 0]
    assert elided and all(p.deviations >= 1 for p in elided)


def test_determiner_insertion_recorded(resources):
    plans = plans_for(["lobo", "comer", "niñas"], resources)
    top = plans[0]
    inserted = [(pos, cat.value, r) for pos, cat, r in top.inserted]
    assert inserted == [(0, "determiner", RATIONALE_DETERMINER)]
    assert top.slot_assignment[0].is_inserted
    assert top.slot_assignment[0].surface == "el"


def test_ranking_is_deterministic(resources):
    first = plans_for(["niñas", "tomar", "batido", "chocolate"], resources)
    second = plans_for(["niñas", "tomar", "batido", "chocolate"], resources)
    assert [p.discovery_index for p in first] == [p.discovery_index for p in second]
    keys = [(p.deviations, p.discovery_index) for p in first]
    assert keys == sorted(keys)


def test_reflexive_marker_stripped_and_forced(resources):
    # An explicit "se" forces the clitic even when the model knows nothing.
    for lm in (resources.lm, NGramModel()):
        plans = plans_for(["mamá", "se", "secar", "pelo"], resources, lm)
        assert all(plan.reflexive for plan in plans)
        assert all(fill.surface != "se" for fill in plans[0].slot_assignment)
    # Without "se", only the usage model makes secar reflexive.
    assert all(plan.reflexive for plan in plans_for(["mamá", "secar", "pelo"], resources))
    empty = plans_for(["mamá", "secar", "pelo"], resources, NGramModel())
    assert not any(plan.reflexive for plan in empty)


def test_tense_planned_from_time_adverb(resources):
    for adverb, tense in (("ayer", Tense.past), ("mañana", Tense.future)):
        plans = plans_for(["yo", "comer", adverb], resources)
        assert plans and all(plan.tense is tense for plan in plans)


def test_explicit_preposition_without_subject_is_rejected(resources):
    tokens = tokenize_and_resolve(["caer", "sal", "a", "mantel"], resources.lexicon)
    with pytest.raises(NoStructureError):
        plan_structures(tokens, resources.grammar, resources.lexicon, resources.lm)


def test_lm_preposition_inserted_for_profiled_verb(resources):
    plans = plans_for(["bebé", "empezar", "caminar"], resources)
    top = plans[0]
    surfaces = [fill.surface for fill in top.slot_assignment]
    assert "a" in surfaces
    position = surfaces.index("a")
    assert top.slot_assignment[position].is_inserted
    assert top.slot_assignment[position].category is LexicalCategory.preposition


def test_no_preposition_invented_for_unprofiled_verb(resources):
    plans = plans_for(["pájaros", "poder", "volar"], resources)
    for plan in plans:
        for fill in plan.slot_assignment:
            if fill.category is LexicalCategory.preposition:
                assert fill.token is not None


def test_oov_subject_reads_as_proper_name(resources):
    plans = plans_for(["Ana", "ir", "colegio"], resources)
    top = plans[0]
    head = top.subject_fills[-1]
    assert head.category is LexicalCategory.proper_name
    assert head.entry is None
    assert head.surface == "Ana"


# Terminal fills the memoized, lookahead-pruned search makes over the
# exact-match corpus and over the golden inputs. Deterministic work
# counters: raise them only with a reason.
CORPUS_FILL_CALLS = 448
GOLDEN_FILL_CALLS = 2152

RESOURCES = load_default_resources()
SURFACES = sorted(
    {form.surface for entry in RESOURCES.lexicon.entries for form in entry.forms}
)


def test_agreement_targets_name_the_agreeing_noun(resources):
    none, subject = planner.NO_AGREEMENT, planner.SUBJECT_AGREEMENT
    # (S (SNS determiner noun) (PRED verb (OBJ (SN determiner noun (SADJ adjective)))))
    top = plans_for(["niña", "comer", "manzana", "roja"], resources)[0]
    assert top.agreement_targets == (1, none, none, 4, none, 4)
    # (S (SNS determiner noun) (PRED verb (SADJ adjective))): predicative
    top = plans_for(["niñas", "ser", "contento"], resources)[0]
    assert top.agreement_targets == (1, none, none, subject)
    # (S (SNC (SNS determiner noun) conjunction (SNS determiner noun)) (PRED verb))
    top = plans_for(["perro", "y", "gato", "comer"], resources)[0]
    assert top.agreement_targets == (1, none, none, 4, none, none)
    assert top.subject_leaf_count == 5


def test_check_grammar_accepts_only_known_phrase_names(grammar):
    planner.check_grammar(grammar, "spanish.grammar")
    planner.check_grammar(parse_grammar("S -> PRED\nPRED -> verb\n"), "small")
    with pytest.raises(GrammarError, match="small: unknown nonterminal 'VP'"):
        planner.check_grammar(parse_grammar("S -> VP\nVP -> verb\n"), "small")
    with pytest.raises(GrammarError, match="small: start symbol 'PRED' is not 'S'"):
        planner.check_grammar(parse_grammar("PRED -> verb\n"), "small")


def _fill_calls(inputs, resources, monkeypatch):
    calls = []
    fill = planner._fill_terminal

    def counting_fill(*args):
        calls.append(args)
        return fill(*args)

    monkeypatch.setattr(planner, "_fill_terminal", counting_fill)
    for words in inputs:
        generate(words, resources, max_candidates=0)
    monkeypatch.undo()
    return len(calls)


def test_search_work_on_corpus_is_bounded(resources, bundled_fixtures, monkeypatch):
    items = load_corpus(bundled_fixtures / "exact_match_corpus.tsv")
    assert len(items) == 9
    keywords = [item.keywords for item in items]
    assert 0 < _fill_calls(keywords, resources, monkeypatch) <= CORPUS_FILL_CALLS


def test_search_work_on_golden_inputs_is_bounded(resources, monkeypatch):
    inputs = golden_inputs(resources.lexicon)
    assert len(inputs) == 320
    assert 0 < _fill_calls(inputs, resources, monkeypatch) <= GOLDEN_FILL_CALLS


def test_generation_leaves_no_garbage_cycles(resources, bundled_fixtures):
    """A plan's tree and role lists are freed by reference counting alone."""
    inputs = [list(item.keywords) for item in load_corpus(
        bundled_fixtures / "exact_match_corpus.tsv"
    )]
    gc.collect()
    gc.disable()
    try:
        for words in inputs:  # warm-up: module-level caches fill here
            assert not generate(words, resources).echo
        gc.collect()
        for _ in range(20):
            for words in inputs:
                generate(words, resources)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _pruning_checked(words, resources):
    """Plan ``words`` with every search run with and without lookahead.

    Asserts that both give the same (tree, payloads, end_state) stream in
    the same order, and returns the fill calls made (pruned, unpruned).
    """
    calls = [0, 0]

    def counted(fill, side):
        def counting_fill(*args):
            calls[side] += 1
            return fill(*args)

        return counting_fill

    def checked_derive(grammar, fill, state, lookahead, insertable):
        assert lookahead is not None
        pruned = list(derive(grammar, counted(fill, 0), state, lookahead, insertable))
        assert pruned == list(derive(grammar, counted(fill, 1), state)), words
        return iter(pruned)

    with mock.patch.object(planner, "derive", checked_derive):
        try:
            plans_for(words, resources)
        except (EmptyInputError, NoStructureError, NoVerbError):
            pass
    return calls


def test_lookahead_keeps_every_derivation_on_golden_inputs(resources):
    pruned = unpruned = 0
    for words in golden_inputs(resources.lexicon):
        calls = _pruning_checked(words, resources)
        pruned += calls[0]
        unpruned += calls[1]
    assert 0 < pruned * 3 <= unpruned


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(SURFACES + ["no", "?", "Lucía"]), max_size=7))
def test_lookahead_keeps_every_derivation(words):
    _pruning_checked(words, RESOURCES)


def _cover_checked(words, resources, check=covers):
    """Plan ``words`` with ``check`` in place of ``covers``; return its verdicts.

    For every attempt ``check`` rejects, runs the unpruned search over that
    attempt's tokens and asserts that no derivation ends at the last token.
    """
    searches = []
    verdicts = []

    class RecordedSearch(planner._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    def checked_covers(grammar, masks, insertable):
        search = searches[-1]
        assert masks is search.masks and insertable == planner._INSERTABLE
        verdicts.append(check(grammar, masks, insertable))
        if not verdicts[-1]:
            fill = partial(planner._fill_terminal, search)
            ends = {state[0] for _tree, _fills, state in derive(grammar, fill, (0, None))}
            assert len(search.tokens) not in ends, words
        return verdicts[-1]

    with mock.patch.object(planner, "_Search", RecordedSearch), mock.patch.object(
        planner, "covers", checked_covers
    ):
        try:
            plans_for(words, resources)
        except (EmptyInputError, NoStructureError, NoVerbError):
            pass
    return verdicts


# Lists that fit only with a preposition the verb's usage profile inserts:
# no conjunction can stand in for it. No golden input is of this kind.
PREPOSITION_ONLY = (("niñas", "ir", "contentas", "parque"), ("ir", "contento", "parque"))


def test_cover_check_rejects_only_attempts_with_no_derivation(resources):
    verdicts = []
    for words in golden_inputs(resources.lexicon) + list(PREPOSITION_ONLY):
        verdicts += _cover_checked(words, resources)
    assert verdicts.count(True) > 0 and verdicts.count(False) > 0
    for words in PREPOSITION_ONLY:
        for plan in plans_for(words, resources):
            assert planner.RATIONALE_PREPOSITION in [why for _, _, why in plan.inserted]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(SURFACES + ["no", "?", "Lucía"]), max_size=7))
def test_cover_check_is_sound(words):
    _cover_checked(words, RESOURCES)


def test_cover_soundness_check_catches_a_planted_mutant(resources):
    """A check that may not insert prepositions rejects attempts that do fit."""

    def mutant(grammar, masks, insertable):
        return covers(grammar, masks, insertable - {"preposition"})

    for words in PREPOSITION_ONLY:
        with pytest.raises(AssertionError, match="not in"):  # a derivation ends at the last token
            _cover_checked(words, resources, mutant)


# ``_Cover.ends`` calls ``covers`` makes over the golden inputs: a
# deterministic work counter, like the fill calls above.
GOLDEN_COVER_ENDS = 2776


def test_cover_work_on_golden_inputs_is_pinned(resources, monkeypatch):
    calls = []
    ends = _Cover.ends

    def counting_ends(self, symbol, start):
        calls.append(symbol)
        return ends(self, symbol, start)

    monkeypatch.setattr(_Cover, "ends", counting_ends)
    for words in golden_inputs(resources.lexicon):
        generate(words, resources, max_candidates=0)
    monkeypatch.undo()
    assert len(calls) == GOLDEN_COVER_ENDS


def _reference_checked(words, resources):
    """Plan ``words``; assert ``covers`` and ``reference_covers`` agree on every attempt."""
    verdicts = []

    def checked_covers(grammar, masks, insertable):
        verdicts.append(covers(grammar, masks, insertable))
        assert verdicts[-1] is reference_covers(grammar, masks, insertable), words
        return verdicts[-1]

    with mock.patch.object(planner, "covers", checked_covers):
        try:
            plans_for(words, resources)
        except (EmptyInputError, NoStructureError, NoVerbError):
            pass
    return verdicts


def test_covers_agrees_with_reference_on_golden_inputs(resources):
    verdicts = []
    for words in golden_inputs(resources.lexicon):
        verdicts += _reference_checked(words, resources)
    assert (verdicts.count(True), len(verdicts)) == (131, 367)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(SURFACES + ["no", "?", "Lucía"]), max_size=7))
def test_covers_agrees_with_reference(words):
    _reference_checked(words, RESOURCES)


def test_generate_rejects_negative_cap(resources):
    assert generate(["dibujar", "animales"], resources, max_candidates=1).texts == [
        "Yo dibujo animales."
    ]
    for cap in (-1, -3):
        with pytest.raises(ValueError, match="max_candidates"):
            generate(["dibujar", "animales"], resources, max_candidates=cap)
