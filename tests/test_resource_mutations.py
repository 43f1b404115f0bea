"""Seeded single-line mutants of every bundled resource file.

Each mutant of ``sample_lexicon.xml``, ``spanish.grammar``, ``toy.lm`` and
``polarity_pairs.txt`` either fails with its format's ``FraseoError``, naming
the mutant file and a line inside it, or loads into a value that passes the
format's checks (fuzzing in the manner of Miller, Fredriksen & So 1990,
"An Empirical Study of the Reliability of UNIX Utilities"). A rejection
also exits 1 through the CLI with the same ``line N: path:`` prefix.
"""

import random
import re

import pytest
from test_cli import run_cli

from fraseo.errors import GrammarError, LexiconParseError, ModelError
from fraseo.grammar import TERMINALS, load_grammar
from fraseo.lexicon import load_lexicon, save_lexicon
from fraseo.lm import NGramModel
from fraseo.planner import PHRASE_NAMES, check_grammar
from fraseo.realizer import load_polarity_pairs

SEED = 20240901
LINES_PER_KIND = 8
BAD_NUMBERS = ("-1", "nan", "inf")
BAD_ENCODINGS = ("utf-inf", "rot13", "utf-32")
UNKNOWN_CODE = "zz"
NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _check_lexicon(path, scratch):
    lexicon = load_lexicon(path)
    save_lexicon(lexicon, scratch / "saved.xml")
    assert load_lexicon(scratch / "saved.xml") == lexicon


def _check_grammar(path, scratch):
    check_grammar(load_grammar(path), path)


def _check_model(path, scratch):
    first, second = scratch / "first.lm", scratch / "second.lm"
    NGramModel.load(path).save(first)
    NGramModel.load(first).save(second)
    assert second.read_bytes() == first.read_bytes()


def _check_polarity(path, scratch):
    for positive, negative in load_polarity_pairs(path).items():
        for word in (positive, negative):
            assert word and word == word.strip() and "\t" not in word


# name: (format error, check of a loaded mutant, CLI option or None, code pattern or None);
# a code pattern's group 1 is a code that the mutants replace by an unknown one.
FORMATS = {
    "sample_lexicon.xml": (
        LexiconParseError,
        _check_lexicon,
        "--lexicon",
        re.compile(r'\b(?:cat|gender|number|person|tense|mood|adverb-class|reflexive)="([^"]*)"'),
    ),
    "spanish.grammar": (
        GrammarError,
        _check_grammar,
        "--grammar",
        re.compile(r"\b(%s)\b" % "|".join(sorted(set(TERMINALS) | PHRASE_NAMES))),
    ),
    "toy.lm": (ModelError, _check_model, "--lm", re.compile(r"^([VP]) ")),
    "polarity_pairs.txt": (LexiconParseError, _check_polarity, None, None),
}


def _replace_match(line, pattern, group, rng, replacement):
    matches = list(pattern.finditer(line))
    match = rng.choice(matches)
    return line[: match.start(group)] + replacement + line[match.end(group) :]


def mutants(text, code, rng):
    """(description, mutant text) of seeded single-line mutations of ``text``."""
    lines = text.split("\n")
    found = []

    def sample(kind, applies, mutate):
        candidates = [index for index, line in enumerate(lines) if applies(line)]
        for index in rng.sample(candidates, min(LINES_PER_KIND, len(candidates))):
            found.append(("%s line %d" % (kind, index + 1), mutate(index)))

    def edited(index, *replacement):
        return "\n".join(lines[:index] + list(replacement) + lines[index + 1 :])

    sample("drop", lambda line: line, lambda index: edited(index))
    sample("duplicate", lambda line: line, lambda index: edited(index, *[lines[index]] * 2))
    sample(
        "truncate",
        lambda line: len(line) > 1,
        lambda index: edited(index, lines[index][: rng.randrange(1, len(lines[index]))]),
    )
    sample(
        "number",
        NUMBER.search,
        lambda index: edited(
            index, _replace_match(lines[index], NUMBER, 0, rng, rng.choice(BAD_NUMBERS))
        ),
    )
    if code is not None:
        sample(
            "code",
            code.search,
            lambda index: edited(index, _replace_match(lines[index], code, 1, rng, UNKNOWN_CODE)),
        )
    if lines[0].startswith("<?xml"):
        for encoding in BAD_ENCODINGS:
            found.append(
                ("encoding %s" % encoding, edited(0, lines[0].replace("utf-8", encoding)))
            )
    return found


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_each_mutant_is_rejected_at_a_line_or_loads_sound(name, data_dir, tmp_path):
    error, check, option, code = FORMATS[name]
    text = (data_dir / name).read_text(encoding="utf-8")
    rng = random.Random("%s %s" % (SEED, name))
    found = mutants(text, code, rng)
    path = tmp_path / name
    loaded = rejected = 0
    for description, mutant in found:
        path.write_text(mutant, encoding="utf-8")
        try:
            check(path, tmp_path)
        except error as exc:
            rejected += 1
            line_count = len(mutant.splitlines())
            assert exc.path == path and 1 <= (exc.line or 0) <= line_count, (description, exc)
            if option is not None:
                status, out, err = run_cli(["generate", option, str(path), "perro", "comer"])
                assert (status, out) == (1, ""), description
                assert err == "error: %s\n" % exc, description
        else:
            loaded += 1
    assert rejected > 0 and loaded > 0, (rejected, loaded)


def test_every_dropped_or_repeated_lexicon_line_is_named_inside_the_file(data_dir, tmp_path):
    """Each drop and duplicate mutant of the lexicon fails at a line it has, or loads.

    expat places the end of a newline-terminated file on the line after its
    last, so a root that never closes is named at the file's last line.
    """
    lines = (data_dir / "sample_lexicon.xml").read_text(encoding="utf-8").split("\n")
    path = tmp_path / "sample_lexicon.xml"
    unclosed = []
    for index, line in enumerate(lines):
        for kind, replacement in (("drop", []), ("duplicate", [line, line])):
            mutant = "\n".join(lines[:index] + replacement + lines[index + 1 :])
            path.write_text(mutant, encoding="utf-8")
            try:
                load_lexicon(path)
            except LexiconParseError as exc:
                line_count = len(mutant.splitlines())
                assert 1 <= (exc.line or 0) <= line_count, (kind, index + 1, exc)
                if exc.reason == "malformed XML: the file ends before <lexicon> closes":
                    assert exc.line == line_count, (kind, index + 1, exc)
                    unclosed.append((kind, line))
    assert unclosed == [("duplicate", "<lexicon>"), ("drop", "</lexicon>")]
