"""Value semantics of the slotted classes on the generate path.

Each class lists its fields in ``__slots__`` and takes value equality, hash,
repr and ``replaced`` from ``fraseo.features.Value``. Every case below builds
two instances from separately constructed but equal field values.
"""

import pytest
from make_golden import golden_inputs

from fraseo.errors import EmptyInputError
from fraseo.features import (
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
from fraseo.grammar import TERMINAL_BITS, Grammar, GrammarRule, TreeNode
from fraseo.lexicon import LexicalEntry, Lexicon, WordForm
from fraseo.lm import TaggedToken, VerbStats
from fraseo.pipeline import GenerationResult, Resources, load_default_resources
from fraseo.planner import (
    InputToken,
    SentenceMode,
    SentencePlan,
    SlotFill,
    _Search,
    insert_default_subject,
    tokenize_and_resolve,
)
from fraseo.realizer import AgreementResult, RealizedSentence


def bundle():
    return FeatureBundle(number=Number.plural, person=Person.third, tense=Tense.present,
                         mood=Mood.indicative)


def form():
    return WordForm(surface="comen", features=bundle())


def entry():
    return LexicalEntry(lemma="comer", category=LexicalCategory.verb, forms=(form(),),
                        adverb_class=None, reflexive_capable=True, extras=(("x-note", "a"),))


def rules():
    return (GrammarRule("S", ("SNS", "PRED"), 1), GrammarRule("SNS", ("noun",), 2),
            GrammarRule("PRED", ("verb",), 3))


def tree():
    subject = TreeNode("SNS", (TreeNode("noun"),))
    return TreeNode("S", (subject, TreeNode("PRED", (TreeNode("verb"),))))


def token(readings=None):
    if readings is None:
        readings = {LexicalCategory.verb: ((entry(), form()),)}
    return InputToken(raw="comen", readings=readings)


def fill():
    return SlotFill(category=LexicalCategory.verb, surface="comen", token=token(),
                    entry=entry(), form=form(), rationale=None)


def plan():
    return SentencePlan(mode=SentenceMode.affirmative, tree=tree(),
                        slot_assignment=(fill(),), deviations=1, discovery_index=0,
                        tense=Tense.present, reflexive=False, subject_leaf_count=1,
                        agreement_targets=(-1,))


def sentence():
    return RealizedSentence(text="Ellos comen.", plan=plan(), trace=("mode affirmative",))


def lexicon():
    return Lexicon.from_entries([entry()])


# (factory, hashable): a class whose fields hold a dict need not hash.
CASES = {
    FeatureBundle: (bundle, True),
    GrammarRule: (lambda: GrammarRule("S", ("SNS", "PRED"), 1), True),
    TreeNode: (tree, True),
    Grammar: (lambda: Grammar(rules=rules(), start="S", depth_limit=2), True),
    WordForm: (form, True),
    LexicalEntry: (entry, True),
    Lexicon: (lexicon, False),
    TaggedToken: (lambda: TaggedToken(surface="come", lemma="comer", category="verb"), True),
    VerbStats: (lambda: VerbStats(total=3, reflexive=1, preps={"de": 1.0}), False),
    Resources: (lambda: Resources(lexicon=lexicon(), grammar=Grammar(rules(), "S"), lm=None,
                                  polarity_pairs={"siempre": "nunca"}), False),
    GenerationResult: (lambda: GenerationResult(input_words=("comer",),
                                                mode=SentenceMode.affirmative,
                                                candidates=(sentence(),), echo=False), True),
    InputToken: (token, True),
    SlotFill: (fill, True),
    SentencePlan: (plan, True),
    _Search: (lambda: _Search(lexicon=lexicon(), lm=None, tokens=[token()]), False),
    AgreementResult: (lambda: AgreementResult(person=Person.third, number=Number.plural,
                                              gender=Gender.masculine,
                                              provenance={"person": "default"}), False),
    RealizedSentence: (sentence, True),
}


def test_every_generate_path_class_is_covered():
    assert len(CASES) == 17
    for cls in CASES:
        assert issubclass(cls, Value)
        assert not hasattr(cls, "__dataclass_fields__"), cls


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_objects(cls):
    factory, hashable = CASES[cls]
    first, second = factory(), factory()
    assert type(first) is cls and not hasattr(first, "__dict__")
    assert first is not second
    assert first == second and not first != second
    if hashable:
        assert hash(first) == hash(second)
    assert first.replaced() == first


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_never_equal_to_a_tuple_or_another_class(cls):
    factory, _hashable = CASES[cls]
    value = factory()
    values = tuple(getattr(value, name) for name in cls._fields)
    assert value != values and values != value
    twin_class = type("Twin", (cls,), {"__slots__": ()})
    twin = twin_class(**{name: getattr(value, name) for name in cls._fields})
    assert twin._fields == cls._fields
    assert value != twin and twin != value
    assert twin == twin_class(**{name: getattr(value, name) for name in cls._fields})


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    factory, _hashable = CASES[cls]
    value = factory()
    expected = "%s(%s)" % (
        cls.__qualname__,
        ", ".join("%s=%r" % (name, getattr(value, name)) for name in cls._fields),
    )
    assert repr(value) == expected


def test_repr_form():
    assert repr(GrammarRule("S", ("SNS", "PRED"), 1)) == (
        "GrammarRule(head='S', body=('SNS', 'PRED'), line=1)"
    )
    assert repr(TreeNode("noun")) == "TreeNode(symbol='noun', children=())"
    assert repr(WordForm("y")) == (
        "WordForm(surface='y', features=FeatureBundle(gender=<Gender.unspecified: "
        "'unspecified'>, number=<Number.unspecified: 'unspecified'>, person=<Person."
        "unspecified: 'unspecified'>, tense=<Tense.unspecified: 'unspecified'>, "
        "mood=<Mood.unspecified: 'unspecified'>))"
    )


def test_input_token_hash_leaves_out_readings():
    verb = token()
    noun = token({LexicalCategory.noun: ((None, None),)})
    assert hash(verb) == hash(noun)
    assert verb != noun
    assert len({verb, noun}) == 2
    assert token() in {verb}


def test_input_token_mask_is_derived_state():
    verb = token()
    assert InputToken._fields == ("raw", "readings", "marker", "is_default_subject")
    assert verb.mask == TERMINAL_BITS["verb"]
    assert InputToken(raw="no", marker="negation").mask == 0
    tampered = token()
    tampered.mask = 0
    assert tampered == verb and hash(tampered) == hash(verb)
    assert repr(tampered) == repr(verb) and "mask" not in repr(verb)
    both = verb.replaced(readings={LexicalCategory.noun: ((None, None),),
                                   LexicalCategory.verb: ((entry(), form()),)})
    assert both.mask == TERMINAL_BITS["noun"] | TERMINAL_BITS["verb"]
    assert tampered.replaced().mask == verb.mask


def test_input_token_mask_sums_its_categories_on_golden_tokens():
    lexicon = load_default_resources().lexicon
    tokens = insert_default_subject([], lexicon)
    for words in golden_inputs(lexicon):
        try:
            tokens += tokenize_and_resolve(words, lexicon)
        except EmptyInputError:
            continue
    assert len(tokens) > 900
    for item in tokens:
        assert item.mask == sum(TERMINAL_BITS[category.value] for category in item.readings)


def test_fields_change_equality():
    assert bundle() != bundle().replaced(number=Number.singular)
    assert entry() != entry().replaced(adverb_class=AdverbClass.other)
    assert TreeNode("S") != TreeNode("S", (TreeNode("noun"),))
    marker = InputToken(raw="no", marker="negation")
    assert marker != InputToken(raw="no")


def test_derived_state_is_not_a_field():
    grammar = Grammar(rules(), "S")
    assert Grammar._fields == ("rules", "start", "depth_limit")
    assert "rules_for" not in repr(grammar)
    grammar.table(frozenset())  # fills a cache the other grammar lacks
    assert grammar == Grammar(rules(), "S")
    shallow = grammar.replaced(depth_limit=1)
    assert shallow.depth_limit == 1 and shallow.rules_for == grammar.rules_for
    assert shallow != grammar
    search = _Search(lexicon=lexicon(), lm=None, tokens=[token()])
    assert _Search._fields == ("lexicon", "lm", "tokens")
    assert search.masks == [1 << list(LexicalCategory).index(LexicalCategory.verb)]


def test_replaced_rejects_unknown_fields():
    with pytest.raises(TypeError):
        form().replaced(lemma="x")
    original = plan()
    negative = original.replaced(mode=SentenceMode.negative)
    assert negative.mode is SentenceMode.negative and original.mode is SentenceMode.affirmative
    assert negative.replaced(mode=SentenceMode.affirmative) == original
