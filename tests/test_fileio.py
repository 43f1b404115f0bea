import pytest

from fraseo.features import LexicalCategory
from fraseo.fileio import write_text_atomic
from fraseo.lexicon import LexicalEntry, Lexicon, WordForm, save_lexicon
from fraseo.lm import NGramModel, parse_tagged_line

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
