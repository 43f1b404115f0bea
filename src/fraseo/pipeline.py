"""End-to-end keyword-to-sentence driver and bundled resource loading."""

from __future__ import annotations

from .errors import PlanningError
from .features import Value
from .fileio import bundled
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


class GenerationResult(Value):
    """The answer to one ``generate()`` call.

    ``mode`` is the SentenceMode, None when echoing; ``candidates`` holds
    RealizedSentences, best first, deduplicated. ``echo``, set by
    ``_derive``, is True exactly when ``mode`` is None.
    """

    _fields = ("input_words", "mode", "candidates")
    __slots__ = _fields + ("echo",)

    def _derive(self):
        self.echo = self.mode is None

    @property
    def echo_text(self):
        return " ".join(self.input_words)

    @property
    def texts(self):
        return [candidate.text for candidate in self.candidates]


def load_resources(lexicon_path=None, grammar_path=None, lm_path=None):
    """Load generation resources, falling back to the bundled ones.

    A grammar the planner cannot interpret raises GrammarError.
    """
    lexicon = load_lexicon(bundled(_BUNDLED_LEXICON, lexicon_path))
    grammar = load_grammar(bundled(_BUNDLED_GRAMMAR, grammar_path))
    check_grammar(grammar, grammar_path or _BUNDLED_GRAMMAR)
    lm = NGramModel.load(bundled(_BUNDLED_LM, lm_path))
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
    except PlanningError:
        return GenerationResult(input_words=words, mode=None, candidates=())

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
    return GenerationResult(input_words=words, mode=plans[0].mode, candidates=tuple(candidates))
