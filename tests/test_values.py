"""Value semantics of the package's slotted value classes.

Each class lists its fields in ``__slots__`` and takes value equality, hash,
repr and ``replaced`` from ``fraseo.features.Value``, the package's only
value-class base. Every case below builds two instances from separately
constructed but equal field values.
"""

import importlib
import inspect
import pkgutil

import pytest
from make_golden import golden_inputs

import fraseo
from fraseo.builder import SourceRecord
from fraseo.errors import EmptyInputError
from fraseo.evaluation import (
    AnnotationRecord,
    CoincidenceMatrix,
    CorpusItem,
    ExactMatchReport,
    ReliabilityMatrix,
)
from fraseo.features import (
    AXIS_UNSPECIFIED,
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
from fraseo.lm import TaggedToken
from fraseo.pipeline import GenerationResult, Resources, load_default_resources
from fraseo.planner import (
    _NO_READINGS,
    InputToken,
    SentenceMode,
    SentencePlan,
    SlotFill,
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
    Grammar: (lambda: Grammar(rules=rules(), depth_limit=2), True),
    WordForm: (form, True),
    LexicalEntry: (entry, True),
    Lexicon: (lexicon, True),
    TaggedToken: (lambda: TaggedToken(surface="come", lemma="comer", category="verb"), True),
    Resources: (lambda: Resources(lexicon=lexicon(), grammar=Grammar(rules()), lm=None,
                                  polarity_pairs={"siempre": "nunca"}), False),
    GenerationResult: (lambda: GenerationResult(input_words=("comer",),
                                                mode=SentenceMode.affirmative,
                                                candidates=(sentence(),)), True),
    InputToken: (token, True),
    SlotFill: (fill, True),
    SentencePlan: (plan, True),
    AgreementResult: (lambda: AgreementResult(person=Person.third, number=Number.plural,
                                              gender=Gender.masculine,
                                              provenance={"person": "default"}), False),
    RealizedSentence: (sentence, True),
    SourceRecord: (lambda: SourceRecord(source_id="alpha", lemma="comer", category="verb",
                                        forms=(form(),), adverb_class=None,
                                        reflexive_capable=True,
                                        extras=(("related", "beber"),)), True),
    CorpusItem: (lambda: CorpusItem(target="Yo como.", keywords=("yo", "comer")), True),
    ExactMatchReport: (lambda: ExactMatchReport(outcomes=[{"status": "matched",
                                                           "candidate_index": 0},
                                                          {"status": "echo"}]), False),
    AnnotationRecord: (lambda: AnnotationRecord(sentence_id="s1", annotator_id="a1",
                                                error_type="a", rating=5, best_generation=1,
                                                suggestion=None), True),
    ReliabilityMatrix: (lambda: ReliabilityMatrix(observers=("a1", "a2"), units=("s1",),
                                                  values={("a1", "s1"): "a"}), False),
    CoincidenceMatrix: (lambda: CoincidenceMatrix(labels=("a", "b"), o={("a", "b"): 1.0},
                                                  n_c={"a": 1.0, "b": 1.0}, n=2.0), False),
}


# The defaults of each class's ``__init__``; a class not named has none.
DEFAULTS = {
    FeatureBundle: dict(AXIS_UNSPECIFIED),
    TreeNode: {"children": (), "payload": None},
    Grammar: {"depth_limit": 2},
    WordForm: {"features": FeatureBundle()},
    LexicalEntry: {"adverb_class": None, "reflexive_capable": False, "extras": ()},
    InputToken: {"readings": _NO_READINGS, "marker": None},
    SlotFill: {"token": None, "entry": None, "form": None, "rationale": None},
    SentencePlan: {"subject_leaf_count": 0, "agreement_targets": ()},
    SourceRecord: {"forms": (), "adverb_class": None, "reflexive_capable": False, "extras": ()},
    AnnotationRecord: {"best_generation": None, "suggestion": None},
}

# The only classes that define ``_derive``: each keeps state derived from its fields.
DERIVED = {
    "Grammar", "InputToken", "Lexicon", "LexicalEntry", "ExactMatchReport", "GenerationResult",
}


def test_every_value_class_is_covered():
    assert len(CASES) == 21
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
    assert repr(TreeNode("noun")) == "TreeNode(symbol='noun', children=(), payload=None)"
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
    assert InputToken._fields == ("raw", "readings", "marker")
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
    grammar = Grammar(rules())
    assert Grammar._fields == ("rules", "depth_limit")
    assert grammar.start == "S"
    assert "rules_for" not in repr(grammar) and "start" not in repr(grammar)
    grammar.table(frozenset())  # fills a cache the other grammar lacks
    assert grammar == Grammar(rules())
    shallow = grammar.replaced(depth_limit=1)
    assert shallow.depth_limit == 1 and shallow.rules_for == grammar.rules_for
    assert shallow != grammar
    assert InputToken._fields == ("raw", "readings", "marker")
    assert token().mask == 1 << list(LexicalCategory).index(LexicalCategory.verb)
    assert Lexicon._fields == ("entries",)
    assert ExactMatchReport._fields == ("outcomes",)
    assert GenerationResult._fields == ("input_words", "mode", "candidates")


def test_generation_result_echoes_exactly_without_a_mode():
    echoed = GenerationResult(input_words=("caer",), mode=None, candidates=())
    assert echoed.echo is True and "echo" not in repr(echoed)
    answered = echoed.replaced(mode=SentenceMode.affirmative, candidates=(sentence(),))
    assert answered.echo is False
    assert answered.replaced(mode=None).echo is True


def test_replaced_rejects_unknown_fields():
    with pytest.raises(TypeError):
        form().replaced(lemma="x")
    original = plan()
    negative = original.replaced(mode=SentenceMode.negative)
    assert negative.mode is SentenceMode.negative and original.mode is SentenceMode.affirmative
    assert negative.replaced(mode=SentenceMode.affirmative) == original


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_init_takes_the_fields_in_order_with_their_defaults(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(parameter.name for parameter in parameters) == cls._fields
    assert {parameter.kind for parameter in parameters} == {
        inspect.Parameter.POSITIONAL_OR_KEYWORD
    }
    defaults = {
        parameter.name: parameter.default
        for parameter in parameters
        if parameter.default is not inspect.Parameter.empty
    }
    assert defaults == DEFAULTS.get(cls, {}) == cls._defaults
    assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
    assert cls.__init__.__module__ == cls.__module__
    if cls.__name__ in DERIVED:
        # ``_derive`` reads the fields, so they must be real ones.
        values = [getattr(CASES[cls][0](), name) for name in cls._fields]
    else:
        values = [object() for _ in cls._fields]
    made = cls(*values)
    assert all(getattr(made, name) is value for name, value in zip(cls._fields, values))


def test_required_field_error_names_the_class():
    with pytest.raises(TypeError) as raised:
        TreeNode()
    assert str(raised.value) == (
        "TreeNode.__init__() missing 1 required positional argument: 'symbol'"
    )


def _value_classes():
    for module in pkgutil.iter_modules(fraseo.__path__):
        importlib.import_module("fraseo." + module.name)
    classes, pending = [], [Value]
    while pending:
        subclasses = pending.pop().__subclasses__()
        pending += subclasses
        classes += [cls for cls in subclasses if cls.__module__.startswith("fraseo.")]
    assert set(CASES) == set(classes)
    return classes


def test_no_value_class_body_defines_init():
    # A generated ``__init__`` was compiled from a string, not from the module.
    for cls in _value_classes():
        assert cls.__init__.__code__.co_filename == "<string>", cls


def test_only_classes_with_derived_state_define_derive():
    derived = [cls for cls in _value_classes() if "_derive" in cls.__dict__]
    assert {cls.__qualname__ for cls in derived} == DERIVED
    for cls in derived:
        assert "_fields" in cls.__dict__, cls
        assert set(cls.__slots__) > set(cls._fields), cls
