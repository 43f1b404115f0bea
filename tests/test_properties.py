"""Properties of generate() over arbitrary keyword lists."""

import random
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraseo.errors import PlanningError
from fraseo.pipeline import generate, load_default_resources
from fraseo.planner import plan_structures, tokenize_and_resolve

_WORD_RE = re.compile(r"\w+")
_CLITICS = ("me", "te", "se", "nos", "os")
_ANCHOR = "negation no before "

RESOURCES = load_default_resources()
SURFACES = sorted(
    {form.surface for entry in RESOURCES.lexicon.entries for form in entry.forms}
)


def _no_count(text):
    return sum(1 for word in _WORD_RE.findall(text.lower()) if word == "no")


# Free text may not carry a standalone "no" of its own: an unknown word is
# realized verbatim, and the property counts the negation the marker adds.
FREE_TEXT = st.text(max_size=8).filter(lambda text: _no_count(text) == 0)

WORDS = st.lists(
    st.sampled_from(SURFACES) | st.sampled_from(["no", "NO", "?", "", "  "]) | FREE_TEXT,
    max_size=7,
)


def _no_is_placed_before_its_anchor(candidate):
    """``no`` comes right before the word its trace line names, or before its clitic.

    A clitic stays glued to its verb: "no se seca", never "se no seca".
    """
    (anchor,) = [
        line[len(_ANCHOR):].lower() for line in candidate.trace if line.startswith(_ANCHOR)
    ]
    words = _WORD_RE.findall(candidate.text.lower())
    index = words.index("no")
    after = words[index + 1 :]
    if after[:1] == [anchor]:
        return index == 0 or words[index - 1] not in _CLITICS
    return after[:2] in [[clitic, anchor] for clitic in _CLITICS]


def _planning_raises(words):
    try:
        plan_structures(
            tokenize_and_resolve(words, RESOURCES.lexicon),
            RESOURCES.grammar,
            RESOURCES.lexicon,
            RESOURCES.lm,
        )
    except PlanningError:
        return True
    return False


@settings(max_examples=150, derandomize=True, deadline=None)
@given(WORDS)
@example(["mamá", "secar", "pelo", "no"])
def test_generate_properties(words):
    result = generate(words, RESOURCES)
    texts = result.texts
    assert generate(words, RESOURCES).texts == texts
    assert len(set(texts)) == len(texts)
    assert result.echo == _planning_raises(words)
    assert result.echo == (not texts)
    for candidate in result.candidates:
        text = candidate.text
        assert text.endswith((".", "?"))
        assert _no_count(text) == (1 if result.mode.is_negative else 0)
        if result.mode.is_negative:
            assert _no_is_placed_before_its_anchor(candidate), (text, candidate.trace)


def _is_marker(word):
    """Whether ``tokenize_and_resolve`` reads ``word`` as ``no`` or ``?``."""
    word = word.strip()
    return word.lower() == "no" or word == "?"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(WORDS, st.integers(min_value=0))
@example(["no", "mamá", "se", "secar", "?", "pelo"], 0)
def test_marker_positions_do_not_change_the_answer(words, seed):
    """Markers moved to the front, to the end or to seeded places give the same answer."""
    markers = [word for word in words if _is_marker(word)]
    content = [word for word in words if not _is_marker(word)]
    rng = random.Random(seed)
    scattered = list(content)
    for marker in markers:
        scattered.insert(rng.randint(0, len(scattered)), marker)
    result = generate(words, RESOURCES)
    for moved in (markers + content, content + markers, scattered):
        again = generate(moved, RESOURCES)
        assert (again.texts, again.echo) == (result.texts, result.echo), moved


@settings(max_examples=150, derandomize=True, deadline=None)
@given(WORDS)
@example(["mamá", "se", "secar", "pelo", "no"])
@example(["dibujar", "animales"])
def test_a_question_mark_turns_each_answer_into_its_question(words):
    """An answered list without ``?`` gains ``?``: each text ``X.`` becomes ``¿X?``, in order."""
    if any(word.strip() == "?" for word in words):
        return
    texts = generate(words, RESOURCES).texts
    question = generate(list(words) + ["?"], RESOURCES).texts
    assert question == ["¿%s?" % text[:-1] for text in texts]
