"""Morphosyntactic feature axes and feature bundles.

Every axis carries an ``unspecified`` value so partially specified bundles can
describe invariable words (prepositions, many adverbs) and underdetermined
forms (an adjective like "azul" that serves both genders).
"""

from enum import Enum
from operator import attrgetter


class IdentityEnum(Enum):
    """Base of the feature enums and ``planner.SentenceMode``: a member hashes by identity.

    Enum members are singletons and compare by identity already, so the
    identity hash agrees with equality and costs a C slot instead of
    ``Enum.__hash__``'s hash of the member name. It differs between
    processes, so nothing may order output by it.

    No function body in the package reads a member through its class, as in
    ``LexicalCategory.verb``: each module binds the members it reads to
    module constants or tables at import, and a test in
    ``tests/test_stdlib_only.py`` holds every module to this. On CPython
    3.10 and 3.11 such a read calls ``EnumType.__getattr__``. On a 2-core
    Xeon host, one read in a function body cost 129-154, 108-121 and 25-32
    ns on 3.10, 3.11 and 3.12 through the class, against 6-8, 4-8 and 10-11
    ns through a module global (100 reads per call, best of 9).
    """

    __hash__ = object.__hash__


class Gender(IdentityEnum):
    unspecified = "unspecified"
    masculine = "masculine"
    feminine = "feminine"


class Number(IdentityEnum):
    unspecified = "unspecified"
    singular = "singular"
    plural = "plural"


class Person(IdentityEnum):
    unspecified = "unspecified"
    first = "first"
    second = "second"
    third = "third"


class Tense(IdentityEnum):
    unspecified = "unspecified"
    present = "present"
    past = "past"
    future = "future"
    conditional = "conditional"


class Mood(IdentityEnum):
    unspecified = "unspecified"
    indicative = "indicative"
    subjunctive = "subjunctive"
    imperative = "imperative"
    infinitive = "infinitive"
    gerund = "gerund"
    participle = "participle"


NON_FINITE_MOODS = frozenset({Mood.infinitive, Mood.gerund, Mood.participle})


class LexicalCategory(IdentityEnum):
    noun = "noun"
    verb = "verb"
    adjective = "adjective"
    adverb = "adverb"
    determiner = "determiner"
    pronoun = "pronoun"
    conjunction = "conjunction"
    preposition = "preposition"
    # Assigned to out-of-vocabulary tokens at runtime; never stored in a lexicon.
    proper_name = "proper_name"


# Categories whose entries hold exactly one form equal to the lemma.
INVARIABLE_CATEGORIES = frozenset(
    {LexicalCategory.adverb, LexicalCategory.conjunction, LexicalCategory.preposition}
)


class AdverbClass(IdentityEnum):
    time_past = "time_past"
    time_future = "time_future"
    negation_polarity = "negation_polarity"
    other = "other"


AXES = ("gender", "number", "person", "tense", "mood")

# Each axis with its ``unspecified`` member, so bundles test by identity.
AXIS_UNSPECIFIED = tuple(
    (axis, kind.unspecified) for axis, kind in zip(AXES, (Gender, Number, Person, Tense, Mood))
)
# What FeatureBundle.validate reads, bound at import as IdentityEnum says:
# the moods a specified tense needs, and two axes' unspecified members.
_TENSED_MOODS = frozenset({Mood.indicative, Mood.subjunctive})
_UNSPECIFIED_TENSE, _UNSPECIFIED_PERSON = Tense.unspecified, Person.unspecified


class Value:
    """Base of fraseo's small value classes, whose fields are their slots.

    A subclass lists its fields in ``__slots__``, after those it inherits,
    and the defaults of its last fields in ``_defaults``, a dict from field
    name to default. This base then compiles the class's ``__init__``, which
    takes the fields in order and stores each; no class writes its own. A
    class that keeps state derived from its fields names the fields alone
    in ``_fields``, the derived slots after them in ``__slots__``, and
    defines ``_derive(self)``, which ``__init__`` calls last to set them,
    so a ``replaced`` copy derives afresh. From the fields this base gives
    equality (an instance equals only an instance of its own class), a
    hash, a ``Name(field=value, ...)`` repr and ``replaced(**changes)``.
    Instances are frozen by convention: nothing assigns a field after
    ``__init__``.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        if "_fields" not in cls.__dict__:
            cls._fields = cls._fields + own
        cls._field_values = attrgetter(*cls._fields)
        if own:
            cls.__init__ = _field_init(cls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == other._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def replaced(self, **changes):
        """A copy with the named fields set to new values."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


def _field_init(cls):
    """An ``__init__`` for ``cls``, compiled as namedtuple does.

    It stores each field, then calls ``_derive`` when the class has one.
    """
    fields = cls._fields
    lines = ["    self.%s = %s\n" % (name, name) for name in fields]
    if hasattr(cls, "_derive"):
        lines.append("    self._derive()\n")
    namespace = {"__name__": cls.__module__}
    exec("def __init__(self, %s):\n%s" % (", ".join(fields), "".join(lines)), namespace)
    init = namespace["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    defaulted = fields[len(fields) - len(cls._defaults):]
    init.__defaults__ = tuple(cls._defaults[name] for name in defaulted) or None
    return init


class FeatureBundle(Value):
    __slots__ = AXES
    _defaults = dict(AXIS_UNSPECIFIED)

    def validate(self):
        """Check internal consistency; raises ValueError on violation.

        A specified tense only makes sense on indicative or subjunctive
        forms, and non-finite forms carry neither tense nor person.
        """
        if self.tense is not _UNSPECIFIED_TENSE and self.mood not in _TENSED_MOODS:
            raise ValueError(
                "tense %s requires indicative or subjunctive mood, got %s"
                % (self.tense.value, self.mood.value)
            )
        if self.mood in NON_FINITE_MOODS:
            if self.tense is not _UNSPECIFIED_TENSE or self.person is not _UNSPECIFIED_PERSON:
                raise ValueError(
                    "non-finite mood %s cannot carry tense or person" % self.mood.value
                )
        return self

    def specified_axes(self):
        return [
            axis
            for axis, unspecified in AXIS_UNSPECIFIED
            if getattr(self, axis) is not unspecified
        ]

    def matches(self, target):
        """True when this bundle is usable where ``target`` is requested.

        Axes compare as equal when either side leaves them unspecified, so
        the relation is symmetric.
        """
        for axis, unspecified in AXIS_UNSPECIFIED:
            mine = getattr(self, axis)
            wanted = getattr(target, axis)
            if mine is unspecified or wanted is unspecified:
                continue
            if mine is not wanted:
                return False
        return True

    def merged_with(self, other):
        """Union of two compatible bundles; specified axes win."""
        if not self.matches(other):
            raise ValueError("cannot merge conflicting bundles %s and %s" % (self, other))
        kwargs = {}
        for axis, unspecified in AXIS_UNSPECIFIED:
            mine = getattr(self, axis)
            kwargs[axis] = mine if mine is not unspecified else getattr(other, axis)
        return FeatureBundle(**kwargs)

    def __str__(self):
        parts = ["%s=%s" % (axis, getattr(self, axis).value) for axis in self.specified_axes()]
        return "{%s}" % ", ".join(parts) if parts else "{unspecified}"


EMPTY_BUNDLE = FeatureBundle()
