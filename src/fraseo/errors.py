"""Exception hierarchy shared across the package."""


class FraseoError(Exception):
    """Base class for all package errors.

    The message reads ``line N: path: reason``, leaving out the line or the
    path when it is None; ``.reason``, ``.line`` and ``.path`` keep the parts.
    """

    def __init__(self, reason, line=None, path=None):
        message = reason if path is None else "%s: %s" % (path, reason)
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.reason = reason
        self.line = line
        self.path = path


class LexiconError(FraseoError):
    pass


class LexiconParseError(LexiconError):
    """Raised when a lexicon, source, allowlist or polarity file is malformed."""


class LexiconConflictError(LexiconParseError):
    """Duplicate (lemma, category) pair in one lexicon.

    Building a ``Lexicon`` sets ``.positions`` to the indices of the two
    entries.
    """


class InflectionMiss(LexiconError):
    """No form of the entry matches the requested feature bundle."""

    def __init__(self, entry, target):
        super().__init__(
            "no form of %r (%s) matches %s" % (entry.lemma, entry.category.value, target)
        )
        self.entry = entry
        self.target = target


class GrammarError(FraseoError):
    """A grammar is unusable."""


class GrammarParseError(GrammarError):
    """Raised when a grammar file is malformed."""


class UndefinedSymbolError(GrammarParseError):
    """A rule references a symbol that is neither a terminal category nor a defined head."""


class CycleError(GrammarError):
    """A cycle was found where a rooted acyclic structure was required."""


class PlanningError(FraseoError):
    pass


class EmptyInputError(PlanningError):
    """Input contained no content tokens (only markers, or nothing)."""


class NoVerbError(PlanningError):
    """No input token resolves to a verb, so no predicate can be built."""


class NoStructureError(PlanningError):
    """No grammar tree is compatible with the input token sequence."""


class ModelError(FraseoError):
    """A language-model file could not be parsed."""


class EvaluationError(FraseoError):
    """An evaluation corpus or annotation file could not be parsed."""
