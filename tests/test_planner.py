import cProfile
import gc
import pstats
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from make_golden import HAND_WRITTEN, golden_inputs
from oracles import (
    leaf_payloads,
    reference_covers,
    reference_derive,
    reference_plan_roles,
    reference_plan_structures,
)

from fraseo import grammar as grammar_module
from fraseo import planner
from fraseo.errors import EmptyInputError, GrammarError, NoStructureError, NoVerbError
from fraseo.evaluation import load_corpus
from fraseo.features import FeatureBundle, LexicalCategory, Mood, Number, Person, Tense
from fraseo.fileio import bundled
from fraseo.grammar import TERMINAL_BITS, _Cover, _Derivation, covers, derive, parse_grammar
from fraseo.lexicon import LexicalEntry, Lexicon, WordForm
from fraseo.lm import NGramModel
from fraseo.pipeline import generate, load_default_resources
from fraseo.planner import (
    MARKER_NEGATION,
    MARKER_QUESTION,
    RATIONALE_DEFAULT_SUBJECT,
    InputToken,
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


def _cante_entries():
    """(verb ``cantar``, noun ``cante``): ``cante`` is two subjunctive forms and a noun."""

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
    return sing, song


def test_readings_keep_every_category_of_a_surface():
    """A homograph reads as each of its categories, pairs in lexicon order."""
    sing, song = _cante_entries()
    (token,) = tokenize_and_resolve(["cante"], Lexicon.from_entries([sing, song]))
    assert list(token.readings) == [LexicalCategory.verb, LexicalCategory.noun]
    assert token.readings[LexicalCategory.verb] == ((sing, sing.forms[1]), (sing, sing.forms[2]))
    assert token.readings[LexicalCategory.noun] == ((song, song.forms[0]),)
    both = TERMINAL_BITS["verb"] | TERMINAL_BITS["noun"]
    grammar = parse_grammar("S -> PRED\nPRED -> verb\n")
    # What the grammar search reads at the start: one token left, both categories.
    assert _Derivation(grammar, None, [token.mask], frozenset()).pending[0] == (1, both)


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
    assert filled[0] is tokenize_and_resolve(["yo"], lexicon)[0]
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


def test_default_subject_is_labelled_by_position_not_spelling(resources):
    """A typed ``yo`` is the default subject's token but never its label."""
    result = generate(["ser", "yo"], resources)
    first, elided = (candidate.plan for candidate in result.candidates)
    assert result.candidates[0].text == "Yo soy yo."
    assert [fill.rationale for fill in first.slot_assignment] == [
        RATIONALE_DEFAULT_SUBJECT, None, None
    ]
    assert first.slot_assignment[0].token is first.slot_assignment[2].token
    assert [fill.rationale for fill in elided.slot_assignment] == [None, None]
    assert elided.subject_leaf_count == 0 and elided.deviations == 1


def test_determiner_insertion_recorded(resources):
    plans = plans_for(["lobo", "comer", "niñas"], resources)
    top = plans[0]
    inserted = [(pos, cat.value, r) for pos, cat, r in top.inserted]
    assert inserted == [(0, "determiner", "determiner")]
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
# exact-match corpus and over the golden inputs, and the body symbols its
# prefix-tree walks expand over the golden inputs, as (all, terminals).
# Deterministic work counters: change them only with a reason. A rule
# that would pass the depth limit is dead in the compiled table, so the
# search never expands the terminals that open it.
CORPUS_FILL_CALLS = 129
GOLDEN_FILL_CALLS = 800
GOLDEN_BRANCH_EXPANSIONS = (1628, 1087)
# Root derivations the search builds over the 20 hand-written lists: one per
# plan, since none that ends before the last token is built (255 were).
CORPUS_ROOT_DERIVATIONS = 135

RESOURCES = load_default_resources()
SURFACES = sorted(
    {form.surface for entry in RESOURCES.lexicon.entries for form in entry.forms}
)


def _oov_words(count, seed=5):
    """``count`` seeded pseudo-words that resolve to nothing, every other one capitalised.

    An out-of-vocabulary word reads only as a proper name, so lists that
    draw them have proper-name subjects.
    """
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = "".join(rng.choice("bcdfglmnprstvz") + rng.choice("aeiou") for _ in range(3))
        if len(words) % 2:
            word = word.capitalize()
        (token,) = tokenize_and_resolve([word], RESOURCES.lexicon)
        if list(token.readings) == [LexicalCategory.proper_name] and word not in words:
            words.append(word)
    return words


# Keyword lists for the property tests: lexicon surfaces, the markers, and
# out-of-vocabulary words.
KEYWORD_LISTS = st.lists(
    st.sampled_from(SURFACES + ["no", "?", "Lucía"] + _oov_words(60)), max_size=7
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
    assert _fill_calls(keywords, resources, monkeypatch) == CORPUS_FILL_CALLS


def test_search_work_on_golden_inputs_is_bounded(resources, monkeypatch):
    inputs = golden_inputs(resources.lexicon)
    assert len(inputs) == 327
    assert _fill_calls(inputs, resources, monkeypatch) == GOLDEN_FILL_CALLS


def test_prefix_branch_expansions_on_golden_inputs_are_pinned(resources, monkeypatch):
    """Count the body symbols expanded by prefix-tree walks, memo hits included."""
    walking = [0]
    expansions = []
    walk, expand = _Derivation.walk, _Derivation.expand

    def counting_walk(self, *args):
        walking[0] += 1
        try:
            return walk(self, *args)
        finally:
            walking[0] -= 1

    def counting_expand(self, name, symbol, *args):
        if walking[0]:  # below the root: the start symbol's bodies expand outside any walk
            expansions.append(symbol is None)
        return expand(self, name, symbol, *args)

    monkeypatch.setattr(_Derivation, "walk", counting_walk)
    monkeypatch.setattr(_Derivation, "expand", counting_expand)
    for words in golden_inputs(resources.lexicon):
        generate(words, resources, max_candidates=0)
    monkeypatch.undo()
    assert (len(expansions), sum(expansions)) == GOLDEN_BRANCH_EXPANSIONS


def test_root_derivations_on_corpus_are_pinned(resources, monkeypatch):
    short = []
    roots = []
    derive = planner.derive

    def counting_derive(grammar, fill, state, masks, insertable):
        for item in derive(grammar, fill, state, masks, insertable):
            roots.append(item)
            if item[1][0] != len(masks):
                short.append(item)
            yield item

    monkeypatch.setattr(planner, "derive", counting_derive)
    for words in HAND_WRITTEN:
        generate(words, resources, max_candidates=0)
    monkeypatch.undo()
    assert len(roots) == CORPUS_ROOT_DERIVATIONS
    assert short == []


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
    """Plan ``words`` with every search run with and without its input masks.

    Asserts that the search over the masks gives the (tree, end_state)
    stream of the unbounded search, leaf payloads included, with the
    derivations that end short of the last token left out, in the same
    order, and that it calls no fill when ``covers`` rejects the masks.
    Returns the fill calls made (pruned, unpruned) over the searches
    ``covers`` accepts.
    """
    calls = [0, 0]

    def checked_derive(grammar, fill, state, masks, insertable):
        assert masks is not None
        made = [0, 0]

        def counted(side):
            def counting_fill(*args):
                made[side] += 1
                return fill(*args)

            return counting_fill

        pruned = list(derive(grammar, counted(0), state, masks, insertable))
        full = derive(grammar, counted(1), state)
        assert pruned == [found for found in full if found[1][0] == len(masks)], words
        if covers(grammar, masks, insertable):
            calls[0] += made[0]
            calls[1] += made[1]
        else:
            assert made[0] == 0, words
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
@given(KEYWORD_LISTS)
def test_lookahead_keeps_every_derivation(words):
    _pruning_checked(words, RESOURCES)


def _cover_checked(words, resources, check=covers):
    """Plan ``words`` with ``check`` in place of ``covers``; return its verdicts.

    For every attempt ``check`` rejects, runs the unpruned search over that
    attempt's tokens and asserts that no derivation ends at the last token.
    """
    searches = []  # (fill, start state, masks) of each search the planner starts
    verdicts = []

    def recorded_derive(grammar, fill, state, masks, insertable):
        searches.append((fill, state, masks))
        return derive(grammar, fill, state, masks, insertable)

    def checked_covers(grammar, masks, insertable):
        fill, start, search_masks = searches[-1]
        assert masks == search_masks[start[0]:] and insertable == planner._INSERTABLE
        verdicts.append(check(grammar, masks, insertable))
        if not verdicts[-1]:
            ends = {state[0] for _tree, state in derive(grammar, fill, start)}
            assert len(search_masks) not in ends, words
        return verdicts[-1]

    with mock.patch.object(planner, "derive", recorded_derive), mock.patch.object(
        grammar_module, "covers", checked_covers
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
            assert "preposition" in [why for _, _, why in plan.inserted]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(KEYWORD_LISTS)
def test_cover_check_is_sound(words):
    _cover_checked(words, RESOURCES)


def test_cover_soundness_check_catches_a_planted_mutant(resources):
    """A check that may not insert prepositions rejects attempts that do fit."""

    def mutant(grammar, masks, insertable):
        return covers(grammar, masks, insertable - {"preposition"})

    for words in PREPOSITION_ONLY:
        with pytest.raises(AssertionError, match="not in"):  # a derivation ends at the last token
            _cover_checked(words, resources, mutant)


# ``_Cover.ends`` calls ``covers`` makes over the golden inputs, without
# and with a goal: deterministic work counters, like the fill calls above.
# Each call walks its compiled symbol's prefix tree from a whole set of
# start positions, so a shared body prefix is matched once; a name reached
# at two path usages is two compiled symbols, so two calls. A call with a
# goal is a step of the goal walk down each rule's last symbol, which stops
# at the first rule that reaches the last token; one without collects the
# full set of ends of a symbol that has more of its rule after it.
GOLDEN_COVER_ENDS = 1023
GOLDEN_COVER_GOALS = 1453


def test_cover_work_on_golden_inputs_is_pinned(resources, monkeypatch):
    calls = {"ends": [], "goals": []}
    ends = _Cover.ends

    def counted(self, symbol, starts, goal=0):
        calls["goals" if goal else "ends"].append(symbol)
        return ends(self, symbol, starts, goal)

    monkeypatch.setattr(_Cover, "ends", counted)
    for words in golden_inputs(resources.lexicon):
        generate(words, resources, max_candidates=0)
    monkeypatch.undo()
    assert (len(calls["ends"]), len(calls["goals"])) == (GOLDEN_COVER_ENDS, GOLDEN_COVER_GOALS)


def _reference_checked(words, resources, check=covers):
    """Plan ``words`` with ``check`` in place of ``covers``; assert it agrees with the reference.

    Returns its verdicts, one per subject attempt.
    """
    verdicts = []

    def checked_covers(grammar, masks, insertable):
        verdicts.append(check(grammar, masks, insertable))
        assert verdicts[-1] is reference_covers(grammar, masks, insertable), words
        return verdicts[-1]

    with mock.patch.object(grammar_module, "covers", checked_covers):
        try:
            plans_for(words, resources)
        except (EmptyInputError, NoStructureError, NoVerbError):
            pass
    return verdicts


def test_covers_agrees_with_reference_on_golden_inputs(resources):
    verdicts = []
    for words in golden_inputs(resources.lexicon):
        verdicts += _reference_checked(words, resources)
    assert (verdicts.count(True), len(verdicts)) == (138, 374)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(KEYWORD_LISTS)
def test_covers_agrees_with_reference(words):
    _reference_checked(words, RESOURCES)


# Three nested prepositional phrases: the bundled grammar derives them only
# past its depth limit, so no structure fits, although every token reads as
# a category the grammar can place.
TOO_DEEP = ("cepilla", "alrededor", "abeja", "abeja", "abeja")


def test_covers_reference_check_catches_a_cover_that_ignores_the_depth_limit(resources):
    """A ``covers`` that lets every nonterminal nest once more per token accepts ``TOO_DEEP``."""

    def mutant(grammar, masks, insertable):
        return covers(grammar.replaced(depth_limit=len(masks) + 1), masks, insertable)

    # Both subject attempts, the default subject's and the bare predicate's.
    assert _reference_checked(TOO_DEEP, resources) == [False, False]
    with pytest.raises(AssertionError, match="cepilla"):  # the mutant accepts an attempt
        _reference_checked(TOO_DEEP, resources, mutant)


def _oracle_checked(words, resources):
    """Plan ``words``, searching every subject attempt; check each search.

    With ``covers`` accepting every attempt, each search ``derive`` runs
    must give the stream of ``reference_derive`` with the derivations that
    end short of the last token left out: the same trees, their leaves'
    payloads included, and end states in the same order. Within one run
    the fill must be called at most once per argument tuple. Returns, per
    checked search, the count of ``reference_derive`` derivations and of
    those that ``derive`` yields.
    """
    searches = []

    def checked_derive(grammar, fill, state, masks, insertable):
        calls = []

        def counting_fill(*args):
            calls.append(args)
            return fill(*args)

        found = list(derive(grammar, counting_fill, state, masks, insertable))
        reference = reference_derive(grammar, fill, state)
        assert found == [item for item in reference if item[1][0] == len(masks)], words
        assert len(calls) == len(set(calls)), words
        searches.append((len(reference), len(found)))
        return iter(found)

    with mock.patch.object(planner, "derive", checked_derive), mock.patch.object(
        grammar_module, "covers", lambda grammar, masks, insertable: True
    ):
        try:
            plans_for(words, resources)
        except (EmptyInputError, NoStructureError, NoVerbError):
            pass
    return searches


def test_derive_agrees_with_reference_on_golden_inputs(resources):
    searches = []
    for words in golden_inputs(resources.lexicon) + list(PREPOSITION_ONLY):
        searches += _oracle_checked(words, resources)
    reference, found = (sum(counts) for counts in zip(*searches))
    assert (len(searches), reference, found) == (377, 1409, 396)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(KEYWORD_LISTS)
def test_derive_agrees_with_reference(words):
    _oracle_checked(words, RESOURCES)


# Subjectless lists with a typed ``yo``: the default subject is the same token.
TYPED_YO = (("ser", "yo"), ("ver", "yo"))
PLANNER_ORACLE_WORDS = st.lists(st.sampled_from(SURFACES + ["yo", "se", "no", "?"]), max_size=6)


def _planner_oracle_mismatches(inputs, resources):
    """The inputs whose plans differ from ``reference_plan_structures``.

    Plans are compared as (tree, slot assignment) in discovery order; both
    sides are empty where planning raises. Returns (mismatched inputs,
    inputs past tokenizing, inputs planned, plans compared).
    """
    mismatched, tokenized, planned, compared = [], 0, 0, 0
    for words in inputs:
        try:
            tokens = tokenize_and_resolve(words, resources.lexicon)
        except EmptyInputError:
            continue
        try:
            plans = plan_structures(tokens, resources.grammar, resources.lexicon, resources.lm)
        except (NoStructureError, NoVerbError):
            plans = []
        plans.sort(key=lambda plan: plan.discovery_index)
        found = [(plan.tree, plan.slot_assignment) for plan in plans]
        reference = reference_plan_structures(
            tokens, resources.grammar, resources.lexicon, resources.lm
        )
        if found != reference:
            mismatched.append(tuple(words))
        tokenized += 1
        planned += bool(found)
        compared += len(found)
    return mismatched, tokenized, planned, compared


def test_plans_agree_with_reference_planner(resources):
    inputs = golden_inputs(resources.lexicon)
    assert _planner_oracle_mismatches(inputs, resources) == ([], 298, 85, 388)
    assert _planner_oracle_mismatches(TYPED_YO, resources) == ([], 2, 2, 6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(PLANNER_ORACLE_WORDS)
def test_plans_agree_with_reference_planner_on_drawn_lists(words):
    assert _planner_oracle_mismatches([words], RESOURCES)[0] == []


# Lists over the bundled lexicon plus the ``cante`` entries. ``cante`` has
# two subjunctive verb readings, so a verb leaf it fills has two choices,
# which no bundled surface gives; it also reads as a noun.
CANTE_LISTS = (
    ("niña", "cante"),
    ("cante",),
    ("niña", "cantar", "cante"),
    ("niña", "ver", "cante"),
    ("cante", "niña"),
)


def _cante_resources(resources):
    sing, song = _cante_entries()
    return resources.replaced(
        lexicon=Lexicon.from_entries(list(resources.lexicon.entries) + [sing, song])
    )


def test_plans_agree_with_reference_planner_on_two_readings_of_a_surface(resources):
    cante = _cante_resources(resources)
    assert _planner_oracle_mismatches(CANTE_LISTS, cante) == ([], 5, 5, 40)
    # Both subjunctive readings of one leaf become plans of their own.
    plans = plans_for(["niña", "cante"], cante)
    verbs = {plan.slot_assignment[-1].form for plan in plans}
    assert verbs == set(cante.lexicon.lemma_index["cantar"][0].forms[1:])


def test_planner_oracle_catches_a_search_that_shares_one_leaf_between_choices(
    resources, monkeypatch
):
    """Giving every choice of a terminal the first choice's leaf loses ``cante``'s second reading.

    The golden inputs cannot tell: no bundled surface has two readings in
    one category.
    """
    expand = _Derivation.expand

    def mutant(self, name, slot, *args):
        found = expand(self, name, slot, *args)
        if slot is None and found:
            return [(found[0][0], end) for _leaf, end in found]
        return found

    cante = _cante_resources(resources)
    monkeypatch.setattr(_Derivation, "expand", mutant)
    mismatched, *_ = _planner_oracle_mismatches(CANTE_LISTS, cante)
    assert ("niña", "cante") in mismatched


def test_planner_oracle_catches_a_fill_that_ignores_the_usage_model(resources, monkeypatch):
    """A fill that never takes the model's preposition loses "Mamá cepilla al perro."."""
    fill = planner._fill_terminal
    silent = NGramModel()

    def mutant(lexicon, lm, *rest):
        return fill(lexicon, silent, *rest)

    monkeypatch.setattr(planner, "_fill_terminal", mutant)
    mismatched, *_ = _planner_oracle_mismatches(golden_inputs(resources.lexicon), resources)
    assert ("mamá", "cepillar", "perro") in mismatched


def test_planner_oracle_catches_a_default_subject_labelled_by_spelling(resources, monkeypatch):
    """Labelling every ``yo`` of a subjectless list as the default subject mislabels ``ser yo``."""
    fill = planner._fill_terminal

    def mutant(lexicon, lm, tokens, supplied, *rest):
        choices = fill(lexicon, lm, tokens, supplied, *rest)
        return [
            (
                item.replaced(rationale=planner.RATIONALE_DEFAULT_SUBJECT)
                if supplied and item.surface == planner.DEFAULT_SUBJECT_LEMMA
                and not item.is_inserted else item,
                state,
            )
            for item, state in choices
        ]

    monkeypatch.setattr(planner, "_fill_terminal", mutant)
    mismatched, *_ = _planner_oracle_mismatches(TYPED_YO, resources)
    assert ("ser", "yo") in mismatched


def test_generate_rejects_negative_cap(resources):
    assert generate(["dibujar", "animales"], resources, max_candidates=1).texts == [
        "Yo dibujo animales."
    ]
    for cap in (-1, -3):
        with pytest.raises(ValueError, match="max_candidates"):
            generate(["dibujar", "animales"], resources, max_candidates=cap)



# The bundled grammar, and variants check_grammar accepts that break the
# planner's shape assumptions: a subject after the predicate, a second root
# rule with two predicates, and leaves directly under S, SP and PRED, a
# phrase with two nouns and an SADJ outside any phrase.
with open(bundled("spanish.grammar"), encoding="utf-8") as _handle:
    GRAMMAR_TEXT = _handle.read()
ROLE_GRAMMARS = {
    "bundled": GRAMMAR_TEXT,
    "pred_first": GRAMMAR_TEXT.replace(
        "S(p,n) -> SNS(p,n,g) PRED(p,n)", "S(p,n) -> PRED(p,n) SNS(p,n,g)"
    ),
    "two_preds": GRAMMAR_TEXT + "S -> PRED PRED\n",
    "bare_leaves": GRAMMAR_TEXT + (
        "S -> noun PRED\nSN -> determiner noun noun\nSP -> preposition noun\n"
        "PRED -> verb noun SADJ\nOBJ -> SADJ SN\n"
    ),
}
# (inputs planned, plans checked) over the golden inputs.
ROLE_COUNTS = {
    "bundled": (85, 388),
    "pred_first": (52, 138),
    "two_preds": (85, 388),
    "bare_leaves": (85, 554),
}


def _roles_checked(grammar, resources):
    """Plan the golden inputs; check each plan with the oracle.

    Each plan's roles must equal ``reference_plan_roles``', and its slot
    assignment its tree's leaf payloads in leaf order. plan_structures
    keeps a tree without exactly two root children only in the attempt that
    elides the default subject, so that is the elided flag.
    The plans must come ranked by (deviations, discovery index), the
    indices numbering them from 0. Returns (inputs planned, plans checked).
    """
    planned = checked = 0
    for words in golden_inputs(resources.lexicon):
        try:
            tokens = tokenize_and_resolve(words, resources.lexicon)
            plans = plan_structures(tokens, grammar, resources.lexicon, resources.lm)
        except (EmptyInputError, NoStructureError, NoVerbError):
            continue
        for plan in plans:
            elided = len(plan.tree.children) != 2
            assert reference_plan_roles(resources.lm, plan.tree, elided) == (
                plan.deviations, plan.agreement_targets, plan.subject_leaf_count
            ), words
            assert plan.slot_assignment == leaf_payloads(plan.tree), words
        ranks = [(plan.deviations, plan.discovery_index) for plan in plans]
        assert ranks == sorted(ranks), words
        assert sorted(index for _deviations, index in ranks) == list(range(len(plans)))
        planned += 1
        checked += len(plans)
    return planned, checked


@pytest.mark.parametrize("name", sorted(ROLE_GRAMMARS))
def test_plan_roles_agree_with_reference(resources, name):
    grammar = parse_grammar(ROLE_GRAMMARS[name])
    planner.check_grammar(grammar, name)
    assert _roles_checked(grammar, resources) == ROLE_COUNTS[name]


def test_plan_roles_check_catches_a_walk_that_ignores_coordination(resources, monkeypatch):
    """A table without the SNC context misranks coordinated plural objects."""
    monkeypatch.setattr(planner, "_DETERMINED", planner._DETERMINED - {"SNC"})
    with pytest.raises(AssertionError, match="letras"):
        _roles_checked(resources.grammar, resources)


def test_plan_roles_count_the_subject_in_their_one_walk(resources, monkeypatch):
    """No plan walks its subject a second time to count its leaves."""
    walks = []
    leaf_sequence = grammar_module.TreeNode.leaf_sequence

    def counting_leaf_sequence(self):
        walks.append(self.symbol)
        return leaf_sequence(self)

    monkeypatch.setattr(grammar_module.TreeNode, "leaf_sequence", counting_leaf_sequence)
    for words in HAND_WRITTEN:
        generate(words, resources, max_candidates=0)
    assert walks == []


@pytest.mark.parametrize(
    "rule, words, bare, wrapped",
    [
        (
            "SP -> preposition noun",
            "abejas volar alrededor de flores",
            "S(SNS(determiner noun) PRED(verb SADV(adverb) SP(preposition noun)))",
            "S(SNS(determiner noun) PRED(verb SADV(adverb) SP(preposition SN(noun))))",
        ),
        ("S -> noun PRED", "perros comer", "S(noun PRED(verb))", "S(SNS(noun) PRED(verb))"),
    ],
    ids=["noun-under-SP", "noun-under-S"],
)
def test_a_bare_noun_costs_the_same_with_or_without_its_phrase(
    resources, rule, words, bare, wrapped
):
    """A noun's roles come from its parent and the node above: a bare noun
    directly under SP or S has the SP or subject role, as it does inside an
    SN/SNS there, so both trees miss a wanted determiner. The wrapped tree,
    found first, ranks first."""
    grammar = parse_grammar(GRAMMAR_TEXT + rule + "\n")
    planner.check_grammar(grammar, rule)
    tokens = tokenize_and_resolve(words.split(), resources.lexicon)
    plans = plan_structures(tokens, grammar, resources.lexicon, resources.lm)
    trees = [str(plan.tree) for plan in plans]
    assert plans[trees.index(bare)].deviations == plans[trees.index(wrapped)].deviations == 1
    assert trees.index(wrapped) < trees.index(bare)


@pytest.mark.parametrize(
    "words", [["perro", "gato", "comer"], ["niña", "Ana", "dibujar", "animales"]]
)
def test_explicit_subject_plans_have_two_root_children(resources, words):
    """A list with a subject plans only (subject, predicate) roots.

    Under the bundled rules plus ``S -> SNS SNS PRED`` the search also
    derives three-child roots for these lists; as plans they would have no
    subject and be realized in the first person. The bundled grammar alone
    has no such root, so only this grammar tells the subject rule's
    explicit-subject half from none.
    """
    grammar = parse_grammar(GRAMMAR_TEXT + "S -> SNS SNS PRED\n")
    planner.check_grammar(grammar, "three_roots")
    tokens = tokenize_and_resolve(words, resources.lexicon)
    plans = plan_structures(tokens, grammar, resources.lexicon, resources.lm)
    assert [len(plan.tree.children) for plan in plans] == [2, 2, 2, 2]
    assert all(plan.subject_leaf_count for plan in plans)


# Lexicon lookups of a warm pass over the golden inputs, (lookup_form,
# lookup_lemma): only its out-of-vocabulary words look anything up, one
# surface lookup each plus one for the 71 that are capitalised, and one
# lemma lookup each. Deterministic work counters: change them only with a
# reason.
GOLDEN_WARM_LOOKUPS = (143, 72)
GOLDEN_OOV_WORDS = 72


def _fresh(resources):
    """``resources`` with a copy of the lexicon, whose table starts empty."""
    return resources.replaced(lexicon=resources.lexicon.replaced())


def _lookup_calls(inputs, resources, monkeypatch):
    calls = {"lookup_form": 0, "lookup_lemma": 0}

    def counting(name):
        lookup = getattr(planner, name)

        def count(*args):
            calls[name] += 1
            return lookup(*args)

        return count

    for name in calls:
        monkeypatch.setattr(planner, name, counting(name))
    for words in inputs:
        generate(words, resources, max_candidates=0)
    monkeypatch.undo()
    return calls["lookup_form"], calls["lookup_lemma"]


def _oov(word, lexicon):
    lower = word.lower()
    return not (
        word in lexicon.form_index or lower in lexicon.form_index or lower in lexicon.lemma_index
    )


def test_warm_pass_looks_up_only_out_of_vocabulary_words(resources, monkeypatch):
    fresh = _fresh(resources)
    inputs = golden_inputs(fresh.lexicon)
    cold = _lookup_calls(inputs, fresh, monkeypatch)
    warm = _lookup_calls(inputs, fresh, monkeypatch)
    assert warm == GOLDEN_WARM_LOOKUPS
    assert cold[0] > warm[0] and cold[1] > warm[1]
    oov = [
        word.strip()
        for words in inputs
        for word in words
        if word.strip() not in ("", "?") and word.strip().lower() != planner.NEGATION_WORD
        and _oov(word.strip(), fresh.lexicon)
    ]
    assert len(oov) == GOLDEN_OOV_WORDS
    assert warm == (sum(1 + (word != word.lower()) for word in oov), len(oov))


def _table_keys_are_bounded(lexicon):
    for key in lexicon.interned:
        if isinstance(key, tuple):
            terminal, _surface = key
            assert terminal in planner._INSERTED, key
        else:
            assert key in lexicon.form_index or key in lexicon.lemma_index, key


def test_token_table_keeps_only_index_keys(resources):
    fresh = _fresh(resources)
    for words in golden_inputs(fresh.lexicon):
        generate(words, fresh)
    size = len(fresh.lexicon.interned)
    assert size
    _table_keys_are_bounded(fresh.lexicon)
    for word in _oov_words(60) + _oov_words(1000, seed=17):
        (token,) = tokenize_and_resolve([word], fresh.lexicon)
        assert token.readings == {LexicalCategory.proper_name: ((None, None),)}
    # A capitalisation the index does not hold is resolved, not kept.
    (token,) = tokenize_and_resolve(["Comer"], fresh.lexicon)
    assert "comer" in lemmas(token, LexicalCategory.verb)
    assert len(fresh.lexicon.interned) == size
    _table_keys_are_bounded(fresh.lexicon)


def _shouting(lexicon):
    """A copy of ``lexicon`` whose ``comer`` forms are upper-cased."""
    entries = []
    for entry in lexicon.entries:
        if entry.lemma == "comer":
            forms = tuple(form.replaced(surface=form.surface.upper()) for form in entry.forms)
            entry = entry.replaced(forms=forms)
        entries.append(entry)
    return Lexicon.from_entries(entries)


def test_token_table_is_per_lexicon(resources):
    bundled, shouting = resources.lexicon.replaced(), _shouting(resources.lexicon)
    for _ in range(3):
        for lexicon in (bundled, shouting):
            for word in ("come", "COME", "comer"):
                (token,) = tokenize_and_resolve([word], lexicon)
                (fresh,) = tokenize_and_resolve([word], lexicon.replaced())
                assert token == fresh, (word, lexicon is bundled)
    (plain,) = tokenize_and_resolve(["come"], bundled)
    assert "comer" in lemmas(plain, LexicalCategory.verb)
    (loud,) = tokenize_and_resolve(["come"], shouting)
    assert list(loud.readings) == [LexicalCategory.proper_name]
    (verb,) = tokenize_and_resolve(["COME"], shouting)
    assert [form.surface for _, form in verb.readings[LexicalCategory.verb]] == ["COME"]
    # The table is derived state: a copy starts empty and compares equal.
    assert bundled.interned and bundled.replaced().interned == {}
    assert bundled == bundled.replaced() and repr(bundled) == repr(bundled.replaced())


def test_interned_tokens_and_fills_are_shared_and_read_only(resources):
    lexicon = resources.lexicon.replaced()
    (first,) = tokenize_and_resolve(["comer"], lexicon)
    (second,) = tokenize_and_resolve(["comer"], lexicon)
    assert second is first
    fresh = InputToken(raw="comer", readings=dict(first.readings))
    assert first == fresh and hash(first) == hash(fresh) and first.mask == fresh.mask
    with pytest.raises(TypeError):
        first.readings[LexicalCategory.noun] = ()
    (subject,) = insert_default_subject([], lexicon)
    assert insert_default_subject([], lexicon)[0] is subject
    with pytest.raises(TypeError):
        del subject.readings[LexicalCategory.pronoun]
    plans = [plans_for(["lobo", "comer", "niñas"], resources)[0] for _ in range(2)]
    assert plans[0].slot_assignment[0] is plans[1].slot_assignment[0]
    assert plans[0].slot_assignment[0].is_inserted


def test_cold_tokenize_reads_no_enum_value(resources):
    """A token's mask reads a member-keyed table, not ``Enum.value``."""
    lexicon = resources.lexicon.replaced()
    inputs = golden_inputs(lexicon)
    profile = cProfile.Profile()
    profile.enable()
    for words in inputs:
        try:
            tokenize_and_resolve(words, lexicon)
        except EmptyInputError:
            pass
    profile.disable()
    assert lexicon.interned
    getters = [key for key in pstats.Stats(profile).stats if key[2] == "__get__"]
    assert getters == []
