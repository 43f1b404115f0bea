"""Keyword interpretation and sentence planning.

First two stages of the generation pipeline: resolve the user's keywords
against the lexicon, detect the sentence mode, split the keywords into
subject and predicate around the main verb, then search the grammar for
every structure that fits the keyword sequence once function words
(determiners, prepositions, conjunctions) are interleaved where the
grammar demands them. The search is the shared ``grammar.derive``; the
planner only fills its terminals, threading (token position, main verb
lemma) as the search state.

Candidate plans are ranked by how far their insertions stray from the
house realization policy (fewer deviations first), with grammar search
order breaking ties.

The planner makes every keyword- and model-driven decision: the mode and
the tense come from the keywords, the inserted prepositions and the
reflexive clitic from the verb usage model. The realizer only renders them.

The planner owns the grammar's phrase roles (PHRASE_NAMES; ``check_grammar``
rejects other names): one walk of each plan tree records what the scoring
needs and, on the plan, what each determiner and adjective agrees with, so
the realizer never reads the tree.
"""

from __future__ import annotations

import enum
from functools import partial

from .errors import EmptyInputError, GrammarError, NoStructureError, NoVerbError
from .features import AdverbClass, LexicalCategory, Number, Tense, Value
from .grammar import TERMINAL_BITS, covers, derive
from .lexicon import lookup_form, lookup_lemma

NEGATION_WORD = "no"
QUESTION_WORD = "?"

MARKER_NEGATION = "negation"
MARKER_QUESTION = "question"

DEFAULT_SUBJECT_LEMMA = "yo"
DEFAULT_DETERMINER = "el"
DEFAULT_CONJUNCTION = "y"
NOUN_PREPOSITION = "de"
REFLEXIVE_LEMMA = "se"

# The nonterminals whose roles the planner interprets; a generation
# grammar starts at S and uses no others.
PHRASE_NAMES = frozenset("S SNS SNC SN SADJ SADV SP OBJ OBJS PRED".split())
_NOMINAL_PHRASES = ("SNS", "SN")
_NOUN = LexicalCategory.noun.value
_DETERMINER = LexicalCategory.determiner.value
_ADJECTIVE = LexicalCategory.adjective.value
_CATEGORIES = {category.value: category for category in LexicalCategory}
# The terminals _fill_terminal may fill with an inserted function word; the
# grammar search's lookahead looks past them.
_INSERTABLE = frozenset(
    (_DETERMINER, LexicalCategory.conjunction.value, LexicalCategory.preposition.value)
)

# SentencePlan.agreement_targets values besides a noun's leaf position: a
# predicative adjective agrees with the subject; other leaves with nothing.
SUBJECT_AGREEMENT = None
NO_AGREEMENT = -1

# An inserted preposition must be this likely under the verb's usage
# profile before the planner will commit to it; a verb takes the reflexive
# clitic when the model has seen it reflexive more often than this.
LM_PREPOSITION_THRESHOLD = 0.5
REFLEXIVE_THRESHOLD = 0.5

# Rationale labels recorded for inserted words.
RATIONALE_DETERMINER = "determiner"
RATIONALE_PREPOSITION = "preposition"
RATIONALE_CONJUNCTION = "conjunction"
RATIONALE_DEFAULT_SUBJECT = "default_subject"


class SentenceMode(enum.Enum):
    affirmative = "affirmative"
    negative = "negative"
    interrogative = "interrogative"
    negative_interrogative = "negative_interrogative"

    @property
    def is_negative(self):
        return self in (SentenceMode.negative, SentenceMode.negative_interrogative)

    @property
    def is_interrogative(self):
        return self in (SentenceMode.interrogative, SentenceMode.negative_interrogative)


class InputToken(Value):
    """One user keyword, resolved against the lexicon.

    ``readings`` maps each LexicalCategory the token reads as to its
    (LexicalEntry, WordForm) pairs, both in lexicon order. An
    out-of-vocabulary word reads only as a proper name with no entry,
    ``((None, None),)``; a marker reads as nothing. Equality compares the
    readings; the hash leaves them out, since a dict has no hash. ``mask``,
    derived from the readings, is the ``TERMINAL_BITS`` mask of their
    categories.
    """

    _fields = ("raw", "readings", "marker", "is_default_subject")
    __slots__ = _fields + ("mask",)

    def __init__(self, raw, readings=None, marker=None, is_default_subject=False):
        self.raw = raw
        self.readings = {} if readings is None else readings
        self.marker = marker
        self.is_default_subject = is_default_subject
        self.mask = sum(TERMINAL_BITS[category.value] for category in self.readings)

    def __hash__(self):
        return hash((self.raw, self.marker, self.is_default_subject))


def _readings(pairs):
    """The ``InputToken.readings`` map of a word's lexicon pairs."""
    if not pairs:
        return {LexicalCategory.proper_name: ((None, None),)}
    readings = {}
    for entry, form in pairs:
        readings[entry.category] = readings.get(entry.category, ()) + ((entry, form),)
    return readings


class SlotFill(Value):
    """Assignment of one grammar leaf: a user token or an inserted word.

    ``token`` is the InputToken it takes, None for an inserted word;
    ``entry`` and ``form`` the LexicalEntry and WordForm, None when the
    lexicon has none.
    """

    __slots__ = ("category", "surface", "token", "entry", "form", "rationale")

    def __init__(self, category, surface, token=None, entry=None, form=None, rationale=None):
        self.category = category
        self.surface = surface
        self.token = token
        self.entry = entry
        self.form = form
        self.rationale = rationale

    @property
    def is_inserted(self):
        return self.token is None


class SentencePlan(Value):
    """A fully lexicalized structure candidate, ready for realization."""

    __slots__ = (
        "mode",
        "tree",
        "slot_assignment",
        "deviations",
        "discovery_index",
        "tense",
        "reflexive",
        "subject_leaf_count",
        "agreement_targets",
    )

    def __init__(
        self,
        mode,
        tree,
        slot_assignment,
        deviations,
        discovery_index,
        tense,
        reflexive,
        subject_leaf_count=0,
        agreement_targets=(),
    ):
        self.mode = mode
        self.tree = tree  # grammar.TreeNode
        self.slot_assignment = slot_assignment  # SlotFill per leaf, in leaf order
        self.deviations = deviations
        self.discovery_index = discovery_index
        self.tense = tense
        self.reflexive = reflexive  # the finite verb takes a reflexive clitic
        self.subject_leaf_count = subject_leaf_count
        # Per leaf: the leaf position of the noun a determiner or adjective
        # agrees with, SUBJECT_AGREEMENT or NO_AGREEMENT.
        self.agreement_targets = agreement_targets

    @property
    def inserted(self):
        """(leaf position, LexicalCategory, rationale) per inserted or default word."""
        return tuple(
            (index, fill.category, fill.rationale)
            for index, fill in enumerate(self.slot_assignment)
            if fill.rationale is not None
        )

    @property
    def subject_fills(self):
        return self.slot_assignment[: self.subject_leaf_count]


def check_grammar(grammar, source):
    """Reject a grammar whose phrase roles the planner cannot interpret.

    The grammar must start at S and use no nonterminal outside PHRASE_NAMES;
    the GrammarError raised otherwise names ``source``, the rule's line and
    the symbol.
    """
    if grammar.start != "S":
        raise GrammarError(
            "%s: start symbol %r is not 'S'" % (source, grammar.start), grammar.rules[0].line
        )
    for rule in grammar.rules:
        if rule.head not in PHRASE_NAMES:
            raise GrammarError(
                "%s: unknown nonterminal %r in rule %s (known: %s)"
                % (source, rule.head, rule, " ".join(sorted(PHRASE_NAMES))),
                rule.line,
            )


def _resolve_word(word, lexicon):
    pairs = lookup_form(lexicon, word)
    if not pairs and word != word.lower():
        pairs = lookup_form(lexicon, word.lower())
    if not pairs:
        entries = lookup_lemma(lexicon, word.lower())
        pairs = tuple((entry, entry.forms[0]) for entry in entries)
    return InputToken(raw=word, readings=_readings(pairs))


def tokenize_and_resolve(words, lexicon):
    """Resolve keywords to lexicon readings, separating mode markers.

    ``no`` becomes the negation marker and ``?`` the question marker; every
    other word resolves through the surface index (as given, then
    lower-cased) and finally the lemma index. Unresolvable words stay as
    out-of-vocabulary tokens. Raises EmptyInputError when nothing but
    markers remains.
    """
    tokens = []
    for word in words:
        word = word.strip()
        if not word:
            continue
        if word.lower() == NEGATION_WORD:
            tokens.append(InputToken(raw=word, marker=MARKER_NEGATION))
        elif word == QUESTION_WORD:
            tokens.append(InputToken(raw=word, marker=MARKER_QUESTION))
        else:
            tokens.append(_resolve_word(word, lexicon))
    if not any(token.marker is None for token in tokens):
        raise EmptyInputError("input has no content words")
    return tokens


def detect_mode(tokens):
    """Sentence mode from the markers alone."""
    negative = any(token.marker == MARKER_NEGATION for token in tokens)
    question = any(token.marker == MARKER_QUESTION for token in tokens)
    if negative and question:
        return SentenceMode.negative_interrogative
    if negative:
        return SentenceMode.negative
    if question:
        return SentenceMode.interrogative
    return SentenceMode.affirmative


def select_tense(tokens):
    """Tense from the first time adverb among the tokens; present otherwise."""
    for token in tokens:
        for entry, _form in token.readings.get(LexicalCategory.adverb, ()):
            if entry.adverb_class is AdverbClass.time_past:
                return Tense.past
            if entry.adverb_class is AdverbClass.time_future:
                return Tense.future
    return Tense.present


def split_subject_predicate(tokens):
    """Split content tokens around the first verb-readable token."""
    content = [token for token in tokens if token.marker is None]
    for index, token in enumerate(content):
        if LexicalCategory.verb in token.readings:
            return content[:index], content[index:]
    words = " ".join(token.raw for token in content)
    raise NoVerbError("no verb among the input words: %s" % words)


def insert_default_subject(subject_tokens, lexicon):
    """Give an empty subject the first-person pronoun, flagged as default."""
    if subject_tokens:
        return list(subject_tokens)
    pairs = lookup_form(lexicon, DEFAULT_SUBJECT_LEMMA)
    token = InputToken(
        raw=DEFAULT_SUBJECT_LEMMA, readings=_readings(pairs), is_default_subject=True
    )
    return [token]


class _Search(Value):
    _fields = ("lexicon", "lm", "tokens")
    __slots__ = _fields + ("masks",)

    def __init__(self, lexicon, lm, tokens):
        self.lexicon = lexicon
        self.lm = lm
        self.tokens = tokens
        # Per token, the TERMINAL_BITS mask of the categories it reads as.
        self.masks = [token.mask for token in tokens]


def _lookahead(search, state):
    """(tokens left, category mask of the pending token or 0) at ``state``."""
    left = len(search.tokens) - state[0]
    return left, search.masks[state[0]] if left else 0


def _fill_terminal(search, name, parent, grandparent, state):
    """(payloads, new_state) choices for a terminal slot of the grammar search.

    The state is (token position, main verb lemma). A slot takes the pending
    token when it reads as the slot's category; otherwise only a function
    word may be inserted. An inserted preposition is "de" inside a nominal
    syntagm; in a predicate complement (an SP under PRED) or between two
    verbs it comes from the verb usage model.
    """
    pos, verb_lemma = state
    category = _CATEGORIES[name]
    tokens = search.tokens
    token = tokens[pos] if pos < len(tokens) else None
    readings = token.readings.get(category) if token is not None else None
    if readings:
        choices = []
        for entry, form in readings:
            new_verb = verb_lemma
            if category is LexicalCategory.verb and verb_lemma is None and entry:
                new_verb = entry.lemma
            rationale = (
                RATIONALE_DEFAULT_SUBJECT if token.is_default_subject else None
            )
            fill = SlotFill(
                category=category,
                surface=token.raw,
                token=token,
                entry=entry,
                form=form,
                rationale=rationale,
            )
            choices.append(((fill,), (pos + 1, new_verb)))
        return choices
    # The pending token does not fit: only function words may be invented.
    if category is LexicalCategory.determiner:
        surface, rationale = DEFAULT_DETERMINER, RATIONALE_DETERMINER
    elif category is LexicalCategory.conjunction:
        surface, rationale = DEFAULT_CONJUNCTION, RATIONALE_CONJUNCTION
    elif category is LexicalCategory.preposition:
        rationale = RATIONALE_PREPOSITION
        if (grandparent if parent == "SP" else parent) != "PRED":
            surface = NOUN_PREPOSITION
        else:
            surface = None
            if verb_lemma is not None:
                surface = _dominant_preposition(search.lm, verb_lemma)
            if surface is None:
                return ()
    else:
        return ()
    return (((_inserted_fill(search, category, surface, rationale),), state),)


def _dominant_preposition(lm, lemma):
    """The preposition the usage model commits to after verb ``lemma``, or None."""
    top = lm.top_preposition(lemma)
    if top is None or top[1] < LM_PREPOSITION_THRESHOLD:
        return None
    return top[0]


def _inserted_fill(search, category, surface, rationale):
    entry = None
    form = None
    for candidate in lookup_lemma(search.lexicon, surface, category):
        entry = candidate
        form = candidate.forms[0]
        break
    return SlotFill(
        category=category,
        surface=surface,
        token=None,
        entry=entry,
        form=form,
        rationale=rationale,
    )


def _phrase_roles(tree):
    """The phrase roles of a plan tree's leaves, from the one walk that reads them.

    Returns (contexts, agreement, subject_leaves, pred): per leaf,
    (in_subject, in_sp, coord_member, determiner), determiner being the
    position of the determiner opening the innermost SNS/SN phrase, if any;
    the ``SentencePlan.agreement_targets`` tuple, where an SNS/SN
    determiner and the adjective of an SADJ in such a phrase agree with its
    noun and an SADJ under PRED with the subject; the subject's leaf count;
    and (the root's PRED child, its first leaf position) or None.
    """
    contexts, targets, starts = [], [], []
    _walk_roles(tree, None, False, False, False, None, contexts, targets, starts)
    agreement = tuple(
        (NO_AGREEMENT if target[1] is None else target[1])
        if isinstance(target, list) else target  # a phrase: agree with its noun
        for target in targets
    )
    pred = None
    for child, start in zip(tree.children, starts):
        if child.symbol == "PRED":
            pred = (child, start)
    return contexts, agreement, starts[1] if len(starts) == 2 else 0, pred


def _walk_roles(node, parent, in_subject, in_sp, coord_member, phrase,
                contexts, targets, starts=None):
    """Append the roles of ``node``'s leaves to ``contexts`` and ``targets``.

    ``phrase`` is the innermost SNS/SN as [determiner, noun] positions.
    For the root, ``starts`` collects the first leaf position of each
    child. A module-level function, not a closure, so a walk leaves no
    reference cycle for the garbage collector.
    """
    name = node.symbol
    nominal = name in _NOMINAL_PHRASES
    for index, child in enumerate(node.children):
        if starts is not None:
            starts.append(len(contexts))
        symbol = child.symbol
        if not child.is_leaf:
            if symbol in _NOMINAL_PHRASES:
                opens = child.children[0].symbol == _DETERMINER
                child_phrase = [len(contexts) if opens else None, None]
            else:
                child_phrase = phrase
            _walk_roles(
                child,
                name,
                index == 0 and len(node.children) == 2 if name == "S" else in_subject,
                in_sp or name == "SP",
                coord_member or (name == "SNC" and symbol == "SNS"),
                child_phrase,
                contexts,
                targets,
            )
            continue
        target = NO_AGREEMENT
        if nominal and symbol == _NOUN:
            phrase[1] = len(contexts)
        elif nominal and symbol == _DETERMINER:
            target = phrase
        elif name == "SADJ" and symbol == _ADJECTIVE:
            if parent in _NOMINAL_PHRASES:
                target = phrase
            elif parent == "PRED":
                target = SUBJECT_AGREEMENT
        contexts.append((in_subject, in_sp, coord_member, phrase and phrase[0]))
        targets.append(target)


def _determiner_state(fills, determiner):
    """How a noun got its determiner (leaf position or None): explicit/inserted/bare."""
    if determiner is None:
        return "bare"
    return "inserted" if fills[determiner].is_inserted else "explicit"


def _score_deviations(search, contexts, pred, fills, elided_default):
    """Count how far a parse strays from the preferred realization policy.

    Policy: keep the default subject; give subject nouns, coordination
    members, and preposition-internal nouns a determiner; give singular
    direct objects a determiner but leave plural ones bare; and let a verb
    with a dominant preposition profile introduce its first complement
    with that preposition. Explicit user words never count against a plan.
    """
    deviations = 1 if elided_default else 0

    for fill, (in_subject, in_sp, coord_member, determiner) in zip(fills, contexts):
        if fill.category is not LexicalCategory.noun:
            continue
        det_state = _determiner_state(fills, determiner)
        if det_state == "explicit":
            continue
        if in_sp or coord_member or in_subject:
            wants_determiner = True
        else:
            plural = fill.form is not None and fill.form.features.number is Number.plural
            wants_determiner = not plural
        if wants_determiner and det_state == "bare":
            deviations += 1
        elif not wants_determiner and det_state == "inserted":
            deviations += 1

    deviations += _verb_profile_deviation(search, pred, fills)
    return deviations


def _verb_profile_deviation(search, pred, fills):
    if pred is None or len(pred[0].children) < 2:
        return 0
    node, start = pred
    verb_fill = fills[start]
    if verb_fill.entry is None:
        return 0
    if _dominant_preposition(search.lm, verb_fill.entry.lemma) is None:
        return 0
    complement = node.children[1]
    if complement.symbol == "SP":
        return 0
    if complement.symbol == LexicalCategory.preposition.value:
        return 0
    return 1


def plan_structures(tokens, grammar, lexicon, lm):
    """Rank every grammar structure that fits the resolved keywords.

    Returns SentencePlans sorted by (policy deviations, discovery order).
    Every plan carries the mode and tense the keywords ask for, and whether
    its main verb takes the reflexive clitic: always after an explicit
    ``se``, otherwise when the usage model ``lm`` says so. Raises
    NoStructureError when the grammar offers no fit, NoVerbError when no
    keyword reads as a verb.
    """
    mode = detect_mode(tokens)
    tense = select_tense(tokens)
    subject, predicate = split_subject_predicate(tokens)

    reflexive_forced = bool(subject) and any(
        entry.lemma == REFLEXIVE_LEMMA
        for entry, _form in subject[-1].readings.get(LexicalCategory.pronoun, ())
    )
    if reflexive_forced:
        subject = subject[:-1]

    if not subject and any(
        LexicalCategory.preposition in token.readings for token in predicate
    ):
        raise NoStructureError(
            "explicit preposition with no subject does not fit the grammar"
        )

    attempts = []
    if subject:
        attempts.append((list(subject), False))
    else:
        attempts.append((insert_default_subject([], lexicon), False))
        attempts.append(([], True))

    plans = []
    discovery = 0
    for subject_tokens, elided_default in attempts:
        search = _Search(
            lexicon=lexicon,
            lm=lm,
            tokens=list(subject_tokens) + list(predicate),
        )
        if not covers(grammar, search.masks, _INSERTABLE):
            continue  # the search could not consume every token
        fill = partial(_fill_terminal, search)
        lookahead = partial(_lookahead, search)
        for tree, fills, (pos, verb_lemma) in derive(
            grammar, fill, (0, None), lookahead, _INSERTABLE
        ):
            if pos != len(search.tokens):
                continue
            if elided_default and len(tree.children) == 2:
                continue
            if not elided_default and subject_tokens and len(tree.children) != 2:
                continue
            contexts, agreement, subject_leaves, pred = _phrase_roles(tree)
            reflexive = reflexive_forced or (
                verb_lemma is not None
                and lm.reflexive_probability(verb_lemma) > REFLEXIVE_THRESHOLD
            )
            plans.append(
                SentencePlan(
                    mode=mode,
                    tree=tree,
                    slot_assignment=tuple(fills),
                    deviations=_score_deviations(
                        search, contexts, pred, fills, elided_default
                    ),
                    discovery_index=discovery,
                    tense=tense,
                    reflexive=reflexive,
                    subject_leaf_count=subject_leaves,
                    agreement_targets=agreement,
                )
            )
            discovery += 1

    if not plans:
        words = " ".join(token.raw for token in tokens if token.marker is None)
        raise NoStructureError("no grammar structure fits: %s" % words)

    plans.sort(key=lambda plan: (plan.deviations, plan.discovery_index))
    return plans
