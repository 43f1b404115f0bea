"""End-to-end keyword-to-sentence driver and bundled resource loading."""

from __future__ import annotations

import os

from .errors import EmptyInputError, NoStructureError, NoVerbError
from .features import Value
from .grammar import load_grammar
from .lexicon import load_lexicon
from .lm import NGramModel
from .planner import check_grammar, plan_structures, tokenize_and_resolve
from .realizer import load_polarity_pairs, realize

_BUNDLED_LEXICON = "sample_lexicon.xml"
_BUNDLED_GRAMMAR = "spanish.grammar"
_BUNDLED_LM = "toy.lm"


class Resources(Value):
    __slots__ = ("lexicon", "grammar", "lm", "polarity_pairs")

    def __init__(self, lexicon, grammar, lm, polarity_pairs):
        self.lexicon = lexicon
        self.grammar = grammar
        self.lm = lm
        self.polarity_pairs = polarity_pairs


class GenerationResult(Value):
    __slots__ = ("input_words", "mode", "candidates", "echo")

    def __init__(self, input_words, mode, candidates, echo):
        self.input_words = input_words
        self.mode = mode  # SentenceMode, None when echoing
        self.candidates = candidates  # RealizedSentence, best first, deduplicated
        self.echo = echo

    @property
    def echo_text(self):
        return " ".join(self.input_words)

    @property
    def texts(self):
        return [candidate.text for candidate in self.candidates]


def _bundled(path, name):
    """``path``, or when it is None the bundled data file ``name``.

    The data files ship inside the package directory (package-data), so a
    plain path reaches them without importing ``importlib.resources``.
    """
    if path is None:
        return os.path.join(os.path.dirname(__file__), "data", name)
    return path


def load_resources(lexicon_path=None, grammar_path=None, lm_path=None):
    """Load generation resources, falling back to the bundled ones.

    A grammar the planner cannot interpret raises GrammarError.
    """
    lexicon = load_lexicon(_bundled(lexicon_path, _BUNDLED_LEXICON))
    grammar = load_grammar(_bundled(grammar_path, _BUNDLED_GRAMMAR))
    check_grammar(grammar, grammar_path or _BUNDLED_GRAMMAR)
    lm = NGramModel.load(_bundled(lm_path, _BUNDLED_LM))
    return Resources(
        lexicon=lexicon,
        grammar=grammar,
        lm=lm,
        polarity_pairs=load_polarity_pairs(),
    )


def load_default_resources():
    return load_resources()


def generate(words, resources, max_candidates=0):
    """Generate ranked sentences for a keyword list.

    Inputs the pipeline cannot handle (no content words, no verb, no
    fitting structure) produce an echo result carrying the original words
    instead of sentences. ``max_candidates`` caps the number of distinct
    sentences returned; 0 means no cap, and a negative cap raises
    ValueError.
    """
    if max_candidates < 0:
        raise ValueError("max_candidates must be >= 0, got %r" % (max_candidates,))
    words = tuple(words)
    try:
        tokens = tokenize_and_resolve(words, resources.lexicon)
        plans = plan_structures(tokens, resources.grammar, resources.lexicon, resources.lm)
    except (EmptyInputError, NoVerbError, NoStructureError):
        return GenerationResult(input_words=words, mode=None, candidates=(), echo=True)

    candidates = []
    seen = set()
    for plan in plans:
        sentence = realize(plan, resources.polarity_pairs)
        if sentence.text in seen:
            continue
        seen.add(sentence.text)
        candidates.append(sentence)
        if max_candidates and len(candidates) >= max_candidates:
            break
    return GenerationResult(
        input_words=words,
        mode=plans[0].mode,
        candidates=tuple(candidates),
        echo=False,
    )
