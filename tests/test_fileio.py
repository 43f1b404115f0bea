import codecs
import pickle

import pytest

from fraseo.builder import AllowlistOracle, load_source_records
from fraseo.errors import EvaluationError, GrammarParseError, LexiconParseError, ModelError
from fraseo.evaluation import load_annotations, load_corpus
from fraseo.features import LexicalCategory
from fraseo.fileio import write_text_atomic
from fraseo.grammar import load_grammar
from fraseo.lexicon import LexicalEntry, Lexicon, WordForm, load_lexicon, save_lexicon
from fraseo.lm import NGramModel, parse_tagged_line, train_file
from fraseo.realizer import load_polarity_pairs

LONE_SURROGATE = "\ud800"  # fails the UTF-8 encode half-way through a write


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"previous\n")
    entry = LexicalEntry(
        lemma="a" + LONE_SURROGATE,
        category=LexicalCategory.noun,
        forms=(WordForm("a" + LONE_SURROGATE),),
    )
    model = NGramModel()
    model.observe_sentence(parse_tagged_line("x/%s/verb" % LONE_SURROGATE))
    writers = (
        lambda: write_text_atomic(path, "x" * 10000 + LONE_SURROGATE),
        lambda: save_lexicon(Lexicon.from_entries([entry]), path),
        lambda: model.save(path),
    )
    for write in writers:
        with pytest.raises(UnicodeEncodeError):
            write()
        assert path.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    write_text_atomic(path, "new\n")
    assert path.read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


# Per reader: one bad file, the error class it raises, and the line and
# reason the error names.
BAD_FILES = {
    "lexicon": (
        load_lexicon,
        '<lexicon>\n  <entry lemma="x" cat="noun"><form surface="x"/></entry>\n'
        '  <entry lemma="y" cat="widget"><form surface="y"/></entry>\n</lexicon>\n',
        LexiconParseError,
        3,
        "unknown category 'widget' for lemma 'y'",
    ),
    "source": (
        load_source_records,
        '<lexicon source="alpha">\n  <entry cat="noun"/>\n</lexicon>\n',
        LexiconParseError,
        2,
        "source entry without lemma",
    ),
    "annotations": (
        load_annotations,
        '<annotations>\n  <annotation sentence="s1" annotator="a1">\n</annotations>\n',
        EvaluationError,
        3,
        "malformed XML: mismatched tag: line 3, column 2",
    ),
    "grammar": (
        load_grammar,
        "S -> PRED\n# comment\nPRED verb\n",
        GrammarParseError,
        3,
        "missing '->'",
    ),
    "model": (
        NGramModel.load,
        "# verb usage model v1\nV ir 3 0\nP ir a lots\n",
        ModelError,
        3,
        "bad model record 'P ir a lots'",
    ),
    "polarity": (
        load_polarity_pairs,
        "siempre\tnunca\nalgo\n",
        LexiconParseError,
        2,
        "bad polarity pair line",
    ),
    "allowlist": (
        AllowlistOracle.load,
        "casa\tnoun\n\nperro\tbogus\n",
        LexiconParseError,
        3,
        "unknown category 'bogus' in allowlist",
    ),
    "corpus": (
        load_corpus,
        "# target<TAB>keywords\nUno.\tuno\nno tab here\n",
        EvaluationError,
        3,
        "missing tab separator",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_every_reader_names_path_line_and_reason(tmp_path, name):
    read, text, error, line, reason = BAD_FILES[name]
    path = tmp_path / ("bad_" + name)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as raised:
        read(path)
    err = raised.value
    assert type(err) is error
    assert (err.path, err.line, err.reason) == (path, line, reason)
    assert str(err) == "line %d: %s: %s" % (line, path, reason)


# Per loader, the error class it raises: the readers above and the corpus trainer.
LOADERS = {name: (read, error) for name, (read, _text, error, _line, _reason) in BAD_FILES.items()}
LOADERS["tagged corpus"] = (train_file, ModelError)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_names_a_missing_file(tmp_path, name):
    read, error = LOADERS[name]
    path = tmp_path / "missing"
    with pytest.raises(error) as raised:
        read(path)
    err = raised.value
    assert type(err) is error
    assert (err.path, err.line, err.reason) == (path, None, "No such file or directory")
    assert str(err) == "%s: No such file or directory" % path
    assert isinstance(err.__cause__, FileNotFoundError)


# Per reader of ``read_text``: a good file whose first line holds data.
GOOD_TEXTS = {
    "grammar": "S -> PRED\nPRED -> verb\n",
    "model": "V ir 3 1\nP ir a 2.0\n",
    "polarity": "bien\tmal\nsiempre\tnunca\n",
    "allowlist": "casa\tnoun\nperro\tnoun\n",
    "corpus": "Uno.\tuno\n",
    "tagged corpus": "yo/yo/pronoun voy/ir/verb a/a/preposition\n",
}


@pytest.mark.parametrize("name", sorted(GOOD_TEXTS))
def test_every_text_reader_drops_a_leading_byte_order_mark(tmp_path, name):
    read, error = LOADERS[name]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(GOOD_TEXTS[name].encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert pickle.dumps(read(marked)) == pickle.dumps(read(plain))
    # The mark is no line end: a bad byte keeps its line.
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes() + b"caf\xe9\n")
    with pytest.raises(error) as raised:
        read(marked)
    line = GOOD_TEXTS[name].count("\n") + 1
    assert (raised.value.line, raised.value.reason) == (line, "invalid UTF-8 byte 0xe9")


def test_corpus_skips_comment_lines(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("# target<TAB>keywords\nUno.\tuno\n  # Dos.\tdos\n", encoding="utf-8")
    assert [item.target for item in load_corpus(path)] == ["Uno."]
