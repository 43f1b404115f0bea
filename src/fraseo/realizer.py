"""Morphological and orthographic realization of sentence plans.

Final stage of the generation pipeline: infer sentence-wide agreement
from the subject, inflect every slot in the plan's tense, add the reflexive
clitic when the plan asks for one, negate, contract adjacent function
words, and punctuate.

The planner makes every decision, so this module renders the plan alone and
reads no tree, no lexicon, no usage model and no keywords: determiners and
adjectives agree as the plan's ``agreement_targets`` say, and ``no`` goes
before the verb inflected here, or before the clitic inserted before it.

A realization builds no value an earlier one already built. Agreement is a
function of a few features of the subject, so ``infer_agreement`` reduces
the subject to that key and interns its result with the result's trace
line (hash-consing; Goto 1974, "Monocopy and Associative Algorithms in an
Extended Lisp"). The inflection targets come from tables keyed the same
way, filled as keys first occur, and ``lexicon.inflect`` remembers each
entry's surface per target. The feature enums and the sentence mode hash by
identity, so these keys cost little to look up.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import InflectionMiss, LexiconParseError
from .features import (
    EMPTY_BUNDLE,
    FeatureBundle,
    Gender,
    LexicalCategory,
    Mood,
    Number,
    Person,
    Tense,
    Value,
)
from .fileio import bundled, data_lines
from .lexicon import inflect
from .planner import NEGATION_WORD, NO_AGREEMENT, SUBJECT_AGREEMENT, SentenceMode

PROVENANCE_DEFAULT = "default"
PROVENANCE_SUBJECT = "derived-from-subject"

# The feature enum members the functions below read, bound at import (the
# rule of features.IdentityEnum).
_FIRST_PERSON, _SECOND_PERSON, _THIRD_PERSON = Person.first, Person.second, Person.third
_SINGULAR, _PLURAL = Number.singular, Number.plural
_MASCULINE, _FEMININE = Gender.masculine, Gender.feminine
_UNSPECIFIED_GENDER = Gender.unspecified
_INDICATIVE = Mood.indicative
_VERB_CATEGORY = LexicalCategory.verb
_PROPER_NAME_CATEGORY = LexicalCategory.proper_name
_CONJUNCTION_CATEGORY = LexicalCategory.conjunction

# Reflexive clitic by (person, plural?).
_CLITICS = {
    (Person.first, False): "me",
    (Person.second, False): "te",
    (Person.third, False): "se",
    (Person.first, True): "nos",
    (Person.second, True): "os",
    (Person.third, True): "se",
}

# The trace's mode and tense lines, built once: ``Enum.value`` is a
# Python-level descriptor, slow to read on every realization.
_MODE_LINES = {mode: "mode %s" % mode.value for mode in SentenceMode}
_TENSE_LINES = {tense: "tense %s" % tense.value for tense in Tense}

# Obligatory fusions of adjacent function words: first word -> second word
# -> fused form, so a word that starts no contraction costs one lookup.
CONTRACTIONS = {
    "a": {"el": "al"},
    "de": {"el": "del"},
    "con": {"yo": "conmigo", "ti": "contigo", "sí": "consigo"},
}

_HEAD_CATEGORIES = (
    LexicalCategory.noun,
    LexicalCategory.pronoun,
    LexicalCategory.proper_name,
)
# The categories that agree as the plan's agreement_targets say.
_AGREEING_CATEGORIES = (LexicalCategory.determiner, LexicalCategory.adjective)
# The agreement key of a subject with no head: first person singular masculine.
_DEFAULT_AGREEMENT_KEY = (Person.first, Number.singular, Gender.masculine, None)

# What a realization decides from a few features, each value built the first
# time its key occurs and shared after: _agreement's results by subject key,
# and the inflection targets by their leading axes in AXES order, (gender,
# number) for a determiner or adjective and (unspecified gender, number,
# person, tense, indicative) for a finite verb. The keys are tuples of
# feature enum members, so each table stays under a hundred values.
_AGREEMENTS = {}
_TARGETS = {}
_INFINITIVE = FeatureBundle(mood=Mood.infinitive)


class AgreementResult(Value):
    __slots__ = ("person", "number", "gender", "provenance")

    def __str__(self):
        return "person=%s number=%s gender=%s" % (
            self.person.value,
            self.number.value,
            self.gender.value,
        )


class RealizedSentence(Value):
    __slots__ = ("text", "plan", "trace")


def infer_agreement(subject_slots):
    """Sentence agreement features from the subject's slot fills.

    ``subject_slots`` is the flat list of fills covering the subject
    constituent (determiners and conjunctions included). Person obeys the
    strict order first > second > third; number is plural for coordinated
    subjects or any plural constituent; gender is feminine only when at
    least one constituent carries gender and all that do are feminine.
    An empty subject falls back to first person singular masculine. The
    result is interned: equal subjects give the same object, whose
    ``provenance`` is read-only.
    """
    return _agreement(subject_slots)[0]


def _agreement(subject_slots):
    """The interned (AgreementResult, trace line, (gender, number) target) of a subject.

    One pass over the fills reduces the subject to its key, (person,
    number, gender, gendered), where ``gendered`` is None without a head,
    else whether some head carries gender.
    """
    person = _THIRD_PERSON
    heads = plural = gendered = masculine = False
    for fill in subject_slots:
        category = fill.category
        if category is _CONJUNCTION_CATEGORY:
            plural = True
        elif category in _HEAD_CATEGORIES:
            heads = True
            features = fill.form.features if fill.form is not None else EMPTY_BUNDLE
            if features.person is _FIRST_PERSON:
                person = _FIRST_PERSON
            elif features.person is _SECOND_PERSON and person is not _FIRST_PERSON:
                person = _SECOND_PERSON
            if features.number is _PLURAL:
                plural = True
            gender = features.gender
            if gender is not _UNSPECIFIED_GENDER:
                gendered = True
                masculine = masculine or gender is not _FEMININE
    if not heads:
        key = _DEFAULT_AGREEMENT_KEY
    else:
        key = (
            person,
            _PLURAL if plural else _SINGULAR,
            _MASCULINE if masculine or not gendered else _FEMININE,
            gendered,
        )
    found = _AGREEMENTS.get(key)
    if found is None:
        person, number, gender, gendered = key
        derived = PROVENANCE_DEFAULT if gendered is None else PROVENANCE_SUBJECT
        provenance = {
            "person": derived,
            "number": derived,
            "gender": PROVENANCE_SUBJECT if gendered else PROVENANCE_DEFAULT,
        }
        agreement = AgreementResult(person, number, gender, MappingProxyType(provenance))
        found = _AGREEMENTS[key] = (
            agreement,
            "agreement %s" % agreement,
            _target(gender, number),
        )
    return found


def _target(*axes):
    """The interned FeatureBundle whose leading axes, in ``AXES`` order, are ``axes``."""
    target = _TARGETS.get(axes)
    if target is None:
        target = _TARGETS[axes] = FeatureBundle(*axes)
    return target


def load_polarity_pairs(path=None):
    """Read the positive<TAB>negative adverb table; LexiconParseError names a bad line.

    A line holds exactly two non-empty fields, and each positive word
    occurs on one line only.
    """
    path = bundled("polarity_pairs.txt", path)
    pairs, first_lines = {}, {}
    for number, line in data_lines(path, LexiconParseError):
        fields = [field.strip() for field in line.split("\t")]
        if len(fields) != 2 or not all(fields):
            raise LexiconParseError("bad polarity pair line", number, path)
        positive, negative = fields
        if positive in first_lines:
            raise LexiconParseError(
                "repeated positive word %r (first on line %d)" % (positive, first_lines[positive]),
                number,
                path,
            )
        first_lines[positive] = number
        pairs[positive] = negative
    return pairs


def _contract_once(words):
    out = []
    trace = []
    i = 0
    while i < len(words):
        seconds = CONTRACTIONS.get(words[i])
        fused = seconds and i + 1 < len(words) and seconds.get(words[i + 1])
        if fused:
            trace.append("contraction %s %s -> %s" % (words[i], words[i + 1], fused))
            out.append(fused)
            i += 2
        else:
            out.append(words[i])
            i += 1
    return out, trace


def apply_contractions(words):
    """Fuse adjacent function-word pairs (a+el, de+el, con+yo, ...).

    Single left-to-right pass; idempotent because no fused form starts
    another pair.
    """
    out, _trace = _contract_once(list(words))
    return out


def _negate(words, pairs, position, verb_index, trace):
    """Swap polarity adverbs and insert ``no`` at index ``position``.

    ``realize`` passes the index of the reflexive clitic it inserted, so the
    clitic stays glued to its verb (``no se seca``), else the finite verb's.
    The trace names the word at ``verb_index``, the finite verb, as it reads
    after the swap. With no finite verb both are 0: ``no`` goes first.
    """
    words = list(words)
    for index, word in enumerate(words):
        if word in pairs:
            trace.append("polarity %s -> %s" % (word, pairs[word]))
            words[index] = pairs[word]
    trace.append("negation no before %s" % (words[verb_index] if words else ""))
    words.insert(position, NEGATION_WORD)
    return words


def _capitalized(surface):
    if not surface:
        return surface
    return surface[0].upper() + surface[1:]


def _agreement_target(plan, index, subject_target):
    """The FeatureBundle the determiner or adjective at leaf ``index`` takes."""
    noun = plan.agreement_targets[index]
    if noun is SUBJECT_AGREEMENT:
        return subject_target
    if noun == NO_AGREEMENT:
        return EMPTY_BUNDLE
    features = plan.slot_assignment[noun].form.features
    return _target(features.gender, features.number)


def _inflect_slot(plan, index, verb_target, subject_target, trace):
    """Surface for one slot. Returns (word, is_finite_verb).

    ``verb_target`` is the finite verb's target, None once a verb has been
    inflected, and ``subject_target`` the subject's (gender, number) target.
    """
    fill = plan.slot_assignment[index]
    category = fill.category

    if category is _PROPER_NAME_CATEGORY or fill.entry is None:
        word = _capitalized(fill.surface)
        if category is _PROPER_NAME_CATEGORY:
            trace.append("proper name %s" % word)
        return word, False

    if category is _VERB_CATEGORY:
        finite = verb_target is not None
        target = verb_target if finite else _INFINITIVE
    elif category in _AGREEING_CATEGORIES:
        finite = False
        target = _agreement_target(plan, index, subject_target)
    else:
        # Nouns and pronouns keep their resolved form; invariable categories
        # surface their single form.
        return (fill.surface if fill.form is None else fill.form.surface), False
    try:
        return inflect(fill.entry, target), finite
    except InflectionMiss:
        trace.append("inflection miss %s kept %s" % (fill.entry.lemma, fill.surface))
        return fill.surface, finite


def realize(plan, polarity_pairs):
    """Turn one SentencePlan into the final sentence text.

    Pipeline: agreement -> slot inflection -> reflexive clitic -> negation
    (swapping the adverbs of the positive -> negative ``polarity_pairs``
    table) -> contractions -> orthography. Every transformation is recorded
    in the trace.
    """
    trace = [_MODE_LINES[plan.mode]]

    agreement, agreement_line, subject_target = _agreement(plan.subject_fills)
    trace.append(agreement_line)
    trace.append(_TENSE_LINES[plan.tense])

    words = []
    finite_index = None
    verb_target = _target(
        _UNSPECIFIED_GENDER, agreement.number, agreement.person, plan.tense, _INDICATIVE
    )
    for index, fill in enumerate(plan.slot_assignment):
        word, is_finite = _inflect_slot(plan, index, verb_target, subject_target, trace)
        if fill.category is _VERB_CATEGORY:
            verb_target = None
        if is_finite:
            finite_index = len(words)
        if fill.rationale is not None:
            trace.append("insert %s %s" % (fill.rationale.replace("_", " "), word))
        words.append(word)

    # ``no`` goes before the finite verb, or before the clitic inserted there.
    negation_index = verb_index = finite_index or 0
    if plan.reflexive and finite_index is not None:
        clitic = _CLITICS[(agreement.person, agreement.number is _PLURAL)]
        words.insert(finite_index, clitic)
        trace.append("reflexive clitic %s" % clitic)
        verb_index += 1

    if plan.mode.is_negative:
        words = _negate(words, polarity_pairs, negation_index, verb_index, trace)

    words, contraction_trace = _contract_once(words)
    trace.extend(contraction_trace)

    text = " ".join(words)
    for index, char in enumerate(text):
        if char.isalpha():
            text = text[:index] + char.upper() + text[index + 1 :]
            break
    if plan.mode.is_interrogative:
        text = "¿%s?" % text
    else:
        text = "%s." % text
    trace.append("orthography %s" % text)

    return RealizedSentence(text=text, plan=plan, trace=tuple(trace))
