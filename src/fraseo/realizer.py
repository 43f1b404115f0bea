"""Morphological and orthographic realization of sentence plans.

Final stage of the generation pipeline: infer sentence-wide agreement
from the subject, inflect every slot in the plan's tense, add the reflexive
clitic when the plan asks for one, negate, contract adjacent function
words, and punctuate.

The planner makes every decision, so this module renders the plan alone and
reads no tree, no lexicon, no usage model and no keywords: determiners and
adjectives agree as the plan's ``agreement_targets`` say, and ``no`` goes
before the verb inflected here.
"""

from __future__ import annotations

import os

from .errors import InflectionMiss
from .features import FeatureBundle, Gender, LexicalCategory, Mood, Number, Person, Value
from .lexicon import inflect
from .planner import NEGATION_WORD, NO_AGREEMENT, SUBJECT_AGREEMENT

PROVENANCE_DEFAULT = "default"
PROVENANCE_SUBJECT = "derived-from-subject"

# Reflexive clitic by (person, plural?).
_CLITICS = {
    (Person.first, False): "me",
    (Person.second, False): "te",
    (Person.third, False): "se",
    (Person.first, True): "nos",
    (Person.second, True): "os",
    (Person.third, True): "se",
}
_CLITIC_WORDS = frozenset(_CLITICS.values())

# Obligatory fusions of adjacent function words.
CONTRACTIONS = {
    ("a", "el"): "al",
    ("de", "el"): "del",
    ("con", "yo"): "conmigo",
    ("con", "ti"): "contigo",
    ("con", "sí"): "consigo",
}

_HEAD_CATEGORIES = (
    LexicalCategory.noun,
    LexicalCategory.pronoun,
    LexicalCategory.proper_name,
)


class AgreementResult(Value):
    __slots__ = ("person", "number", "gender", "provenance")

    def __init__(self, person, number, gender, provenance):
        self.person = person
        self.number = number
        self.gender = gender
        self.provenance = provenance

    def __str__(self):
        return "person=%s number=%s gender=%s" % (
            self.person.value,
            self.number.value,
            self.gender.value,
        )


class RealizedSentence(Value):
    __slots__ = ("text", "plan", "trace")

    def __init__(self, text, plan, trace):
        self.text = text
        self.plan = plan
        self.trace = trace


def infer_agreement(subject_slots):
    """Sentence agreement features from the subject's slot fills.

    ``subject_slots`` is the flat list of fills covering the subject
    constituent (determiners and conjunctions included). Person obeys the
    strict order first > second > third; number is plural for coordinated
    subjects or any plural constituent; gender is feminine only when at
    least one constituent carries gender and all that do are feminine.
    An empty subject falls back to first person singular masculine.
    """
    heads = [
        fill
        for fill in subject_slots
        if fill.category in _HEAD_CATEGORIES
    ]
    coordinated = any(
        fill.category is LexicalCategory.conjunction for fill in subject_slots
    )
    provenance = {}

    if not heads:
        provenance = {
            "person": PROVENANCE_DEFAULT,
            "number": PROVENANCE_DEFAULT,
            "gender": PROVENANCE_DEFAULT,
        }
        return AgreementResult(Person.first, Number.singular, Gender.masculine, provenance)

    persons = set()
    numbers = set()
    genders = set()
    for fill in heads:
        features = fill.form.features if fill.form is not None else FeatureBundle()
        persons.add(features.person)
        numbers.add(features.number)
        if features.gender is not Gender.unspecified:
            genders.add(features.gender)

    if Person.first in persons:
        person = Person.first
    elif Person.second in persons:
        person = Person.second
    else:
        person = Person.third

    if coordinated or Number.plural in numbers:
        number = Number.plural
    else:
        number = Number.singular

    if genders and genders == {Gender.feminine}:
        gender = Gender.feminine
    else:
        gender = Gender.masculine

    provenance = {
        "person": PROVENANCE_SUBJECT,
        "number": PROVENANCE_SUBJECT,
        "gender": PROVENANCE_SUBJECT if genders else PROVENANCE_DEFAULT,
    }
    return AgreementResult(person, number, gender, provenance)


def load_polarity_pairs(path=None):
    """Read the positive -> negative adverb table (tab separated)."""
    if path is None:  # the bundled table, shipped in the package directory
        path = os.path.join(os.path.dirname(__file__), "data", "polarity_pairs.txt")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    pairs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        positive, _, negative = line.partition("\t")
        positive = positive.strip()
        negative = negative.strip()
        if positive and negative:
            pairs[positive] = negative
    return pairs


def _contract_once(words):
    out = []
    trace = []
    i = 0
    while i < len(words):
        if i + 1 < len(words) and (words[i], words[i + 1]) in CONTRACTIONS:
            fused = CONTRACTIONS[(words[i], words[i + 1])]
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


def _negate(words, pairs, verb_index, trace):
    """Swap polarity adverbs and insert ``no`` before the finite verb.

    ``verb_index`` is the finite verb's position in ``words``, as
    ``realize`` placed it; a reflexive clitic just before it stays glued to
    its verb (``no se seca``). With no finite verb, ``no`` goes first.
    """
    words = list(words)
    for index, word in enumerate(words):
        if word in pairs:
            trace.append("polarity %s -> %s" % (word, pairs[word]))
            words[index] = pairs[word]
    position = verb_index if verb_index is not None else 0
    if position > 0 and words[position - 1] in _CLITIC_WORDS:
        position -= 1
    anchor = words[verb_index] if verb_index is not None else words[0] if words else ""
    words.insert(position, NEGATION_WORD)
    trace.append("negation no before %s" % anchor)
    return words


def _capitalized(surface):
    if not surface:
        return surface
    return surface[0].upper() + surface[1:]


def _agreement_target(plan, index, agreement):
    """(gender, number) the determiner or adjective at leaf ``index`` takes."""
    noun = plan.agreement_targets[index]
    if noun is SUBJECT_AGREEMENT:
        return agreement.gender, agreement.number
    if noun == NO_AGREEMENT:
        return Gender.unspecified, Number.unspecified
    features = plan.slot_assignment[noun].form.features
    return features.gender, features.number


def _inflect_slot(plan, index, agreement, verb_seen, trace):
    """Surface for one slot. Returns (word, is_finite_verb)."""
    fill = plan.slot_assignment[index]
    category = fill.category

    if category is LexicalCategory.proper_name or fill.entry is None:
        word = _capitalized(fill.surface)
        if category is LexicalCategory.proper_name:
            trace.append("proper name %s" % word)
        return word, False

    if category is LexicalCategory.verb:
        finite = not verb_seen
        if finite:
            target = FeatureBundle(
                person=agreement.person,
                number=agreement.number,
                tense=plan.tense,
                mood=Mood.indicative,
            )
        else:
            target = FeatureBundle(mood=Mood.infinitive)
    elif category in (LexicalCategory.determiner, LexicalCategory.adjective):
        finite = False
        gender, number = _agreement_target(plan, index, agreement)
        target = FeatureBundle(gender=gender, number=number)
    else:
        # Nouns and pronouns keep their resolved form; invariable categories
        # surface their single form.
        return (fill.surface if fill.form is None else fill.form.surface), False
    try:
        return inflect(fill.entry, target), finite
    except InflectionMiss:
        trace.append("inflection miss %s kept %s" % (fill.entry.lemma, fill.surface))
        return fill.surface, finite


def _insertion_label(rationale):
    return rationale.replace("_", " ")


def realize(plan, polarity_pairs):
    """Turn one SentencePlan into the final sentence text.

    Pipeline: agreement -> slot inflection -> reflexive clitic -> negation
    (swapping the adverbs of the positive -> negative ``polarity_pairs``
    table) -> contractions -> orthography. Every transformation is recorded
    in the trace.
    """
    trace = ["mode %s" % plan.mode.value]

    agreement = infer_agreement(plan.subject_fills)
    trace.append("agreement %s" % agreement)
    trace.append("tense %s" % plan.tense.value)

    words = []
    finite_index = None
    verb_seen = False
    for index, fill in enumerate(plan.slot_assignment):
        word, is_finite = _inflect_slot(plan, index, agreement, verb_seen, trace)
        if fill.category is LexicalCategory.verb:
            verb_seen = True
        if is_finite:
            finite_index = len(words)
        if fill.rationale is not None:
            trace.append("insert %s %s" % (_insertion_label(fill.rationale), word))
        words.append(word)

    if plan.reflexive and finite_index is not None:
        clitic = _CLITICS[(agreement.person, agreement.number is Number.plural)]
        words.insert(finite_index, clitic)
        trace.append("reflexive clitic %s" % clitic)
        finite_index += 1

    if plan.mode.is_negative:
        words = _negate(words, polarity_pairs, finite_index, trace)

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
