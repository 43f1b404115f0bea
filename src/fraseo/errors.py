"""Exception hierarchy shared across the package."""


class FraseoError(Exception):
    """Base class for all package errors."""


class LexiconError(FraseoError):
    pass


class LexiconParseError(LexiconError):
    """Raised when a lexicon file is malformed; message names the line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class LexiconConflictError(LexiconParseError):
    """Duplicate (lemma, category) pair in one lexicon file."""


class InflectionMiss(LexiconError):
    """No form of the entry matches the requested feature bundle."""

    def __init__(self, entry, target):
        super().__init__(
            "no form of %r (%s) matches %s" % (entry.lemma, entry.category.value, target)
        )
        self.entry = entry
        self.target = target


class GrammarError(FraseoError):
    """A grammar is unusable; the message names the line when one is at fault."""

    def __init__(self, reason, line=None):
        message = reason if line is None else "line %d: %s" % (line, reason)
        super().__init__(message)
        self.reason = reason
        self.line = line


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
