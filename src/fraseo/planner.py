"""Keyword interpretation and sentence planning.

First two stages of the generation pipeline: resolve the user's keywords
against the lexicon, detect the sentence mode, split the keywords into
subject and predicate around the main verb, then search the grammar for
every structure that fits the keyword sequence once function words
(determiners, prepositions, conjunctions) are interleaved where the
grammar demands them. The search is the shared ``grammar.Search``, built
once per call; the planner hands it the keywords' category masks and fills
its terminals, threading (token position, main verb lemma) as the search
state.

Candidate plans are ranked by how far their insertions stray from the
house realization policy (fewer deviations first), with grammar search
order breaking ties.

The function words the planner may insert are declared once, in
``_INSERTED``: each insertable terminal with the word it inserts there. The
search's insertable set is its keys, and an inserted word's rationale is
its terminal's name.

Keywords with no subject get the default subject, the keyword ``yo``, at
the front of the one token list the search runs over; a second start of
the same search, past it, elides it, and reads what the first start
memoized at each later token position. Only that position marks it as the
default: a typed ``yo`` is the same token.

What the planner resolves from a word alone it resolves once per lexicon,
and keeps in the lexicon's table ``Lexicon.interned`` (hash-consing, Goto
1974): the InputToken of each keyword that is a key of the surface or lemma
index (the default subject among them) and the SlotFill of each inserted
word under (terminal name, surface). Any other word, such as an
out-of-vocabulary one or a capitalisation the index lacks, is resolved on
every call and never kept, so the table is bounded by the lexicon, and a
warm call looks up only its out-of-vocabulary words. Shared tokens have
read-only readings.

The planner makes every keyword- and model-driven decision: the mode and
the tense come from the keywords, the inserted prepositions and the
reflexive clitic from the verb usage model. The realizer only renders them.

The planner owns the grammar's phrase roles (PHRASE_NAMES; ``check_grammar``
rejects other names). Every role clause reads a node and its parent, as
the fill reads a terminal's parent and grandparent; ``_plan_roles`` states
the clauses. Each leaf of a plan tree carries its SlotFill. One walk of
each plan tree decides the roles and records on the plan the leaves'
fills in order, the subject span and what each determiner and adjective
agrees with, so the realizer never reads the tree.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType

from .errors import EmptyInputError, GrammarError, NoStructureError, NoVerbError
from .features import AdverbClass, IdentityEnum, LexicalCategory, Number, Tense, Value
from .grammar import TERMINAL_BITS, Search
from .lexicon import lookup_form, lookup_lemma
from .lm import REFLEXIVE_LEMMA

NEGATION_WORD = "no"
QUESTION_WORD = "?"

MARKER_NEGATION = "negation"
MARKER_QUESTION = "question"

DEFAULT_SUBJECT_LEMMA = "yo"

# The nonterminals whose roles the planner interprets; a generation
# grammar starts at S and uses no others.
PHRASE_NAMES = frozenset("S SNS SNC SN SADJ SADV SP OBJ OBJS PRED".split())
_NOMINAL_PHRASES = ("SNS", "SN")
# The contexts whose nouns want a determiner whatever their number: the
# subject, a preposition complement and a coordination member.
_DETERMINED = frozenset({"S", "SP", "SNC"})
_NOUN = LexicalCategory.noun.value
_DETERMINER = LexicalCategory.determiner.value
_ADJECTIVE = LexicalCategory.adjective.value
_PREPOSITION = LexicalCategory.preposition.value
_CATEGORIES = {category.value: category for category in LexicalCategory}
# TERMINAL_BITS keyed by member, so a token's mask reads no Enum.value.
_CATEGORY_BITS = {category: TERMINAL_BITS[category.value] for category in LexicalCategory}
# The terminals _fill_terminal may fill with an inserted function word, and
# the word: under PRED the usage model picks the preposition instead. The
# grammar search lets these terminals consume no token.
_INSERTED = {_DETERMINER: "el", LexicalCategory.conjunction.value: "y", _PREPOSITION: "de"}
_INSERTABLE = frozenset(_INSERTED)
# The terminals whose fill reads the parent and grandparent heads: only an
# inserted preposition depends on whether it stands in a PRED or SP.
_CONTEXTUAL = frozenset({_PREPOSITION})
# The feature enum members the functions below read, bound at import (the
# rule of features.IdentityEnum); the names above hold their ``.value``s.
_VERB_CATEGORY = LexicalCategory.verb
_ADVERB_CATEGORY = LexicalCategory.adverb
_PRONOUN_CATEGORY = LexicalCategory.pronoun
_PREPOSITION_CATEGORY = LexicalCategory.preposition
_PLURAL = Number.plural
# select_tense's tense by time adverb class, and its tense without one.
_ADVERB_TENSES = {AdverbClass.time_past: Tense.past, AdverbClass.time_future: Tense.future}
_DEFAULT_TENSE = Tense.present

# SentencePlan.agreement_targets values besides a noun's leaf position: a
# predicative adjective agrees with the subject; other leaves with nothing.
SUBJECT_AGREEMENT = None
NO_AGREEMENT = -1

# An inserted preposition must be this likely under the verb's usage
# profile before the planner will commit to it; a verb takes the reflexive
# clitic when the model has seen it reflexive more often than this.
LM_PREPOSITION_THRESHOLD = 0.5
REFLEXIVE_THRESHOLD = 0.5

# Rationale recorded for the default subject; an inserted word's is its
# terminal's name.
RATIONALE_DEFAULT_SUBJECT = "default_subject"


class SentenceMode(IdentityEnum):
    affirmative = "affirmative"
    negative = "negative"
    interrogative = "interrogative"
    negative_interrogative = "negative_interrogative"

    @property
    def is_negative(self):
        return self in _NEGATIVE_MODES

    @property
    def is_interrogative(self):
        return self in _INTERROGATIVE_MODES


_NEGATIVE_MODES = frozenset({SentenceMode.negative, SentenceMode.negative_interrogative})
_INTERROGATIVE_MODES = frozenset({SentenceMode.interrogative, SentenceMode.negative_interrogative})
# detect_mode's mode by (negation marker seen, question marker seen).
_MODES = {
    (False, False): SentenceMode.affirmative,
    (True, False): SentenceMode.negative,
    (False, True): SentenceMode.interrogative,
    (True, True): SentenceMode.negative_interrogative,
}

# The readings of every marker and of every out-of-vocabulary word.
_NO_READINGS = MappingProxyType({})
_OOV_READINGS = MappingProxyType({LexicalCategory.proper_name: ((None, None),)})


class InputToken(Value):
    """One user keyword, resolved against the lexicon.

    ``readings`` maps each LexicalCategory the token reads as to its
    (LexicalEntry, WordForm) pairs, both in lexicon order. An
    out-of-vocabulary word reads only as a proper name with no entry,
    ``((None, None),)``; a marker reads as nothing, the default empty
    read-only map. The planner's tokens have read-only readings, since the
    lexicon's table shares them between calls. Equality compares the readings; the hash leaves them out, since
    a mapping has no hash. ``mask``, set by ``_derive`` from the readings,
    is the ``TERMINAL_BITS`` mask of their categories.
    """

    _fields = ("raw", "readings", "marker")
    __slots__ = _fields + ("mask",)
    _defaults = {"readings": _NO_READINGS, "marker": None}

    def _derive(self):
        self.mask = sum(map(_CATEGORY_BITS.__getitem__, self.readings))

    def __hash__(self):
        return hash((self.raw, self.marker))


def _readings(pairs):
    """The read-only ``InputToken.readings`` map of a word's lexicon pairs."""
    if not pairs:
        return _OOV_READINGS
    readings = {}
    for entry, form in pairs:
        readings[entry.category] = readings.get(entry.category, ()) + ((entry, form),)
    return MappingProxyType(readings)


class SlotFill(Value):
    """Assignment of one grammar leaf: a user token or an inserted word.

    ``token`` is the InputToken it takes, None for an inserted word;
    ``entry`` and ``form`` the LexicalEntry and WordForm, None when the
    lexicon has none.
    """

    __slots__ = ("category", "surface", "token", "entry", "form", "rationale")
    _defaults = {"token": None, "entry": None, "form": None, "rationale": None}

    @property
    def is_inserted(self):
        return self.token is None


class SentencePlan(Value):
    """A fully lexicalized structure candidate, ready for realization.

    ``tree`` is a grammar.TreeNode whose leaves carry their SlotFills, and
    ``slot_assignment`` holds those SlotFills in leaf order. ``reflexive``
    says the finite verb takes a reflexive clitic. ``agreement_targets``
    gives per leaf the leaf position of the noun a determiner or adjective
    agrees with, SUBJECT_AGREEMENT or NO_AGREEMENT.
    """

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
    _defaults = {"subject_leaf_count": 0, "agreement_targets": ()}

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
            "start symbol %r is not 'S'" % grammar.start, grammar.rules[0].line, source
        )
    for rule in grammar.rules:
        if rule.head not in PHRASE_NAMES:
            raise GrammarError(
                "unknown nonterminal %r in rule %s (known: %s)"
                % (rule.head, rule, " ".join(sorted(PHRASE_NAMES))),
                rule.line,
                source,
            )


def _resolve_word(word, lexicon):
    """The InputToken of ``word``, kept in ``lexicon.interned`` if ``word`` is an index key."""
    lower = word.lower()
    if lower == NEGATION_WORD:
        token = InputToken(raw=word, marker=MARKER_NEGATION)
    elif word == QUESTION_WORD:
        token = InputToken(raw=word, marker=MARKER_QUESTION)
    else:
        pairs = lookup_form(lexicon, word)
        if not pairs and word != lower:
            pairs = lookup_form(lexicon, lower)
        if not pairs:
            pairs = tuple((entry, entry.forms[0]) for entry in lookup_lemma(lexicon, lower))
        token = InputToken(raw=word, readings=_readings(pairs))
    if word in lexicon.form_index or word in lexicon.lemma_index:
        lexicon.interned[word] = token
    return token


def tokenize_and_resolve(words, lexicon):
    """Resolve keywords to lexicon readings, separating mode markers.

    ``no`` becomes the negation marker and ``?`` the question marker; every
    other word resolves through the surface index (as given, then
    lower-cased) and finally the lemma index. Unresolvable words stay as
    out-of-vocabulary tokens. A word that is a key of either index, ``no``
    among them, is resolved once per lexicon: its token is kept in
    ``lexicon.interned`` and shared by later calls. Raises EmptyInputError
    when nothing but markers remains.
    """
    interned = lexicon.interned
    tokens = []
    for word in words:
        word = word.strip()
        if word:
            tokens.append(interned.get(word) or _resolve_word(word, lexicon))
    if not any(token.marker is None for token in tokens):
        raise EmptyInputError("input has no content words")
    return tokens


def detect_mode(tokens):
    """Sentence mode from the markers alone."""
    markers = {token.marker for token in tokens}
    return _MODES[MARKER_NEGATION in markers, MARKER_QUESTION in markers]


def select_tense(tokens):
    """Tense from the first time adverb among the tokens; present otherwise."""
    for token in tokens:
        for entry, _form in token.readings.get(_ADVERB_CATEGORY, ()):
            tense = _ADVERB_TENSES.get(entry.adverb_class)
            if tense is not None:
                return tense
    return _DEFAULT_TENSE


def split_subject_predicate(tokens):
    """Split content tokens around the first verb-readable token."""
    content = [token for token in tokens if token.marker is None]
    for index, token in enumerate(content):
        if _VERB_CATEGORY in token.readings:
            return content[:index], content[index:]
    words = " ".join(token.raw for token in content)
    raise NoVerbError("no verb among the input words: %s" % words)


def insert_default_subject(subject_tokens, lexicon):
    """The subject, or for an empty one the token of the keyword ``yo``.

    The default subject is the ordinary (interned) token a typed ``yo``
    resolves to; only its position tells the planner it was supplied.
    """
    if subject_tokens:
        return list(subject_tokens)
    return tokenize_and_resolve([DEFAULT_SUBJECT_LEMMA], lexicon)


def _fill_terminal(lexicon, lm, tokens, supplied, name, parent, grandparent, state):
    """(SlotFill, new_state) choices for a terminal slot of the grammar search.

    The search puts each choice's SlotFill on a leaf of its own.

    The state is (token position, main verb lemma). A slot takes the pending
    token when it reads as the slot's category; the first ``supplied``
    tokens are the planner's default subject, labelled by position, never
    by spelling, since a typed ``yo`` is the same token. Otherwise only a
    terminal in ``_INSERTED`` may take its word, with the terminal's name
    as rationale. In a predicate complement (an SP under PRED) or between
    two verbs the inserted preposition comes from the verb usage model
    ``lm`` instead.
    """
    pos, verb_lemma = state
    category = _CATEGORIES[name]
    token = tokens[pos] if pos < len(tokens) else None
    readings = token.readings.get(category) if token is not None else None
    if readings:
        choices = []
        for entry, form in readings:
            new_verb = verb_lemma
            if category is _VERB_CATEGORY and verb_lemma is None and entry:
                new_verb = entry.lemma
            fill = SlotFill(
                category=category,
                surface=token.raw,
                token=token,
                entry=entry,
                form=form,
                rationale=RATIONALE_DEFAULT_SUBJECT if pos < supplied else None,
            )
            choices.append((fill, (pos + 1, new_verb)))
        return choices
    # The pending token does not fit: only function words may be invented.
    surface = _INSERTED.get(name)
    if name == _PREPOSITION and (grandparent if parent == "SP" else parent) == "PRED":
        surface = None if verb_lemma is None else _dominant_preposition(lm, verb_lemma)
    if surface is None:
        return ()
    fill = lexicon.interned.get((name, surface))
    if fill is None:
        entries = lookup_lemma(lexicon, surface, category)
        entry = entries[0] if entries else None
        form = entry.forms[0] if entries else None
        fill = lexicon.interned[name, surface] = SlotFill(
            category=category, surface=surface, entry=entry, form=form, rationale=name
        )
    return ((fill, state),)


def _dominant_preposition(lm, lemma):
    """The preposition the usage model commits to after verb ``lemma``, or None."""
    top = lm.top_preposition(lemma)
    if top is None or top[1] < LM_PREPOSITION_THRESHOLD:
        return None
    return top[0]


def _plan_roles(lm, tree):
    """(deviations, agreement targets, subject leaf count, slot assignment) of one plan.

    One walk decides them all; the slot assignment is the leaves' SlotFills
    in leaf order.

    Every clause reads a node and its parent. The deviations count how far
    the plan strays from the house realization policy (``plan_structures``
    adds the elided default subject). A noun's phrase is its SNS/SN parent,
    or the noun alone when its parent is no such phrase, and the phrase's
    context is the node above it: the noun wants a determiner when that
    context is in ``_DETERMINED`` (subject, preposition complement,
    coordination member) or the noun is singular, so a plural direct object
    goes bare. A missing wanted determiner, or an inserted unwanted one,
    deviates. Each PRED whose verb has a dominant preposition profile
    deviates when its second child is neither an SP nor a preposition; the
    walk judges a PRED after its children, from its first leaf's fill.
    Explicit user words never count against a plan. Determiners and SADJ
    adjectives agree with the noun of their parent phrase; an SADJ under
    PRED with the subject. The subject span is the leaves of the root's
    first child, when the root has two children: the walk counts them as
    the fills before the second child.
    """
    fills, targets, starts = [], [], []
    deviations = _walk_roles(lm, tree, None, None, fills, targets, starts)
    agreement = tuple(
        target[0] if isinstance(target, list) else target  # a phrase: agree with its noun
        for target in targets
    )
    subject = starts[1] if len(starts) == 2 else 0
    return deviations, agreement, subject, tuple(fills)


def _walk_roles(lm, node, parent, outer, fills, targets, starts=None):
    """The deviations under ``node``; appends its leaves' fills and targets.

    ``parent`` names the node's parent and ``outer`` is the parent's phrase:
    for an SNS/SN, a one-item list that takes its noun's leaf position when
    the walk reaches it, else None. ``starts``, when given, takes the
    number of fills before each child of ``node``. A module-level function,
    not a closure, so a walk leaves no reference cycle for the garbage
    collector.
    """
    name = node.symbol
    children = node.children
    first = len(targets)
    deviations = 0
    phrase = [NO_AGREEMENT] if name in _NOMINAL_PHRASES else None
    for child in children:
        if starts is not None:
            starts.append(len(fills))
        symbol = child.symbol
        if child.children:
            deviations += _walk_roles(lm, child, name, phrase, fills, targets)
            continue
        position = len(targets)
        fills.append(child.payload)
        target = NO_AGREEMENT
        if symbol == _NOUN:
            determiner, context = None, name
            if phrase is not None:
                phrase[0], context = position, parent
                if children[0].symbol == _DETERMINER:
                    determiner = children[0].payload
            # An explicit determiner never deviates; a missing one deviates
            # where a determiner is wanted, an inserted one where it is not.
            if determiner is None or determiner.is_inserted:
                form = child.payload.form
                plural = form is not None and form.features.number is _PLURAL
                deviations += (context in _DETERMINED or not plural) == (determiner is None)
        elif symbol == _DETERMINER:
            target = phrase or NO_AGREEMENT
        elif symbol == _ADJECTIVE and name == "SADJ":
            target = outer or (SUBJECT_AGREEMENT if parent == "PRED" else NO_AGREEMENT)
        targets.append(target)
    if name == "PRED" and len(children) > 1 and children[1].symbol not in ("SP", _PREPOSITION):
        entry = fills[first].entry
        deviations += entry is not None and _dominant_preposition(lm, entry.lemma) is not None
    return deviations


def plan_structures(tokens, grammar, lexicon, lm):
    """Rank every grammar structure that fits the resolved keywords.

    Returns SentencePlans sorted by (policy deviations, discovery order).
    The search runs over one token list: the subject, or the default
    subject ``yo`` when the keywords have none, then the predicate. It
    starts at token 0; for a subjectless list the same search runs a second
    start from token 1, past the default subject, over the memo the first
    start filled, and that elision costs one deviation. The start decides
    which derivations are plans: the root has two children (subject,
    predicate) exactly when the search starts at 0. A plan's
    discovery index is its position in the stream of plans. Every plan
    carries the mode and tense the keywords ask for, and whether its main
    verb takes the reflexive clitic: always after an explicit ``se``,
    otherwise when the usage model ``lm`` says so. Raises NoStructureError
    when the grammar offers no fit, NoVerbError when no keyword reads as a
    verb.
    """
    mode = detect_mode(tokens)
    tense = select_tense(tokens)
    subject, predicate = split_subject_predicate(tokens)

    reflexive_forced = bool(subject) and any(
        entry.lemma == REFLEXIVE_LEMMA
        for entry, _form in subject[-1].readings.get(_PRONOUN_CATEGORY, ())
    )
    if reflexive_forced:
        subject = subject[:-1]

    if not subject and any(
        _PREPOSITION_CATEGORY in token.readings for token in predicate
    ):
        raise NoStructureError(
            "explicit preposition with no subject does not fit the grammar"
        )

    # One token list and one search for both attempts: a subjectless list
    # is searched from the default subject (start 0), then from past it
    # (start 1), and the second start reads the first one's memo.
    searched = insert_default_subject(subject, lexicon) + predicate
    supplied = int(not subject)
    fill = partial(_fill_terminal, lexicon, lm, searched, supplied)
    search = Search(
        grammar, fill, [token.mask for token in searched], _INSERTABLE, _CONTEXTUAL
    )
    plans = []
    for start in range(supplied + 1):
        for tree, (_, verb) in search.run((start, None)):
            # Only a search from token 0 has a subject, whose plans have a two-child root.
            if (len(tree.children) == 2) != (start == 0):
                continue
            deviations, agreement, subject_leaves, fills = _plan_roles(lm, tree)
            reflexive = reflexive_forced or (
                verb is not None
                and lm.reflexive_probability(verb) > REFLEXIVE_THRESHOLD
            )
            plans.append(
                SentencePlan(
                    mode=mode,
                    tree=tree,
                    slot_assignment=fills,
                    deviations=deviations + start,
                    discovery_index=len(plans),
                    tense=tense,
                    reflexive=reflexive,
                    subject_leaf_count=subject_leaves,
                    agreement_targets=agreement,
                )
            )

    if not plans:
        words = " ".join(token.raw for token in tokens if token.marker is None)
        raise NoStructureError("no grammar structure fits: %s" % words)

    plans.sort(key=lambda plan: plan.deviations)  # stable: discovery order breaks ties
    return plans
