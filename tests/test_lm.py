import cProfile
import pstats

import pytest

from fraseo import lm
from fraseo.errors import ModelError
from fraseo.lm import NGramModel, parse_tagged_line, train_file, train_model


def test_parse_tagged_line():
    tokens = parse_tagged_line("yo/yo/pronoun voy/ir/verb")
    assert [(t.surface, t.lemma, t.category) for t in tokens] == [
        ("yo", "yo", "pronoun"),
        ("voy", "ir", "verb"),
    ]
    for bad in ("voy/ir", "voy//verb", "voy/ir/verbo", "a/b/c/d"):
        with pytest.raises(ValueError):
            parse_tagged_line(bad)


@pytest.fixture(scope="module")
def toy_model(data_dir):
    return train_file(data_dir / "toy_corpus.tagged")


def test_toy_corpus_trains_cleanly(toy_model):
    assert toy_model.skipped_lines == 0
    assert len(toy_model.verbs()) == 15


def test_adjacent_and_skip_one_preposition_weights(toy_model):
    # Three adjacent "a" after forms of one verb plus one at distance two.
    assert toy_model.raw_preposition_weight("ir", "a") == pytest.approx(3.5)
    assert toy_model.total_count("ir") == 4
    assert toy_model.preposition_after("ir") == [("a", 1.0)]
    assert toy_model.top_preposition("ir") == ("a", 1.0)


def test_profiled_verbs(toy_model):
    assert toy_model.top_preposition("cepillar") == ("a", 1.0)
    assert toy_model.top_preposition("empezar") == ("a", 1.0)
    assert toy_model.top_preposition("pintar") == ("con", 1.0)
    assert toy_model.top_preposition("ver") == ("a", 1.0)


def test_unprofiled_verbs_have_no_preposition(toy_model):
    for verb in ("comer", "dibujar", "escribir", "poder", "querer", "tomar", "volar"):
        assert toy_model.known(verb)
        assert toy_model.preposition_after(verb) == []
        assert toy_model.top_preposition(verb) is None


def test_reflexive_counts(toy_model):
    assert toy_model.reflexive_probability("secar") == pytest.approx(0.75)
    assert toy_model.reflexive_probability("lavar") == pytest.approx(1.0)
    assert toy_model.reflexive_probability("comer") == 0.0
    assert toy_model.reflexive_probability("unseen") == 0.0


def test_distribution_normalization_and_ties():
    model = train_model(
        [
            "va/ir/verb a/a/preposition casa/casa/noun",
            "va/ir/verb en/en/preposition tren/tren/noun",
        ]
    )
    assert model.preposition_after("ir") == [("a", 0.5), ("en", 0.5)]
    assert sum(p for _, p in model.preposition_after("ir")) == pytest.approx(1.0)


def test_skip_one_counts_regardless_of_intervening_token():
    model = train_model(["va/ir/verb rápido/rápido/adverb a/a/preposition casa/casa/noun"])
    assert model.raw_preposition_weight("ir", "a") == pytest.approx(0.5)


def test_reflexive_adjacency_both_sides():
    model = train_model(["se/se/pronoun lava/lavar/verb", "lava/lavar/verb se/se/pronoun"])
    assert model.reflexive_probability("lavar") == pytest.approx(1.0)
    distant = train_model(["se/se/pronoun no/no/adverb lava/lavar/verb"])
    assert distant.reflexive_probability("lavar") == 0.0


def test_malformed_lines_skipped_and_counted():
    model = train_model(
        [
            "# comment",
            "",
            "broken token line",
            "va/ir/verb a/a/preposition casa/casa/noun",
        ]
    )
    assert model.skipped_lines == 1
    assert model.total_count("ir") == 1


def test_save_load_round_trip(toy_model, tmp_path):
    path = tmp_path / "model.lm"
    toy_model.save(path)
    reloaded = NGramModel.load(path)
    assert reloaded.verbs() == toy_model.verbs()
    for verb in toy_model.verbs():
        assert reloaded.total_count(verb) == toy_model.total_count(verb)
        assert reloaded.preposition_after(verb) == toy_model.preposition_after(verb)
        assert reloaded.reflexive_probability(verb) == toy_model.reflexive_probability(verb)
    second = tmp_path / "model2.lm"
    reloaded.save(second)
    assert path.read_bytes() == second.read_bytes()


def test_bundled_model_matches_fresh_training(toy_model, data_dir, tmp_path):
    bundled = NGramModel.load(data_dir / "toy.lm")
    fresh_path = tmp_path / "fresh.lm"
    toy_model.save(fresh_path)
    assert fresh_path.read_bytes() == (data_dir / "toy.lm").read_bytes()
    assert bundled.verbs() == toy_model.verbs()


def test_training_builds_one_tally_per_verb_and_reads_no_enum(data_dir, monkeypatch):
    """A VerbStats is built only for a verb not seen before, and categories
    compare as strings, with no descriptor ``__get__`` such as ``Enum.value``."""
    built = []
    init = lm.VerbStats.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(lm.VerbStats, "__init__", counting_init)
    lines = (data_dir / "toy_corpus.tagged").read_text(encoding="utf-8").split("\n")
    profile = cProfile.Profile()
    model = profile.runcall(train_model, lines)
    assert len(built) == len(model.verbs()) == 15
    assert [key for key in pstats.Stats(profile).stats if key[2] == "__get__"] == []


def test_load_rejects_malformed_model(tmp_path):
    path = tmp_path / "bad.lm"
    path.write_text("V ir four 0\n", encoding="utf-8")
    with pytest.raises(ModelError):
        NGramModel.load(path)
    with pytest.raises(ModelError):
        NGramModel.load(tmp_path / "missing.lm")


@pytest.mark.parametrize(
    "record",
    [
        "V ir -3 7",
        "V ir 7 -3",
        "V ir -3 -3",
        "V ir 2 3",
        "P ir a -0.5",
        "P ir a nan",
        "P ir a inf",
        "P ir a -inf",
    ],
)
def test_load_rejects_counts_and_weights_no_model_holds(tmp_path, record):
    path = tmp_path / "bad.lm"
    path.write_text("# verb usage model v1\nV ir 4 1\nP ir a 1.0\n%s\n" % record, encoding="utf-8")
    with pytest.raises(ModelError) as raised:
        NGramModel.load(path)
    assert str(raised.value) == "line 4: %s: bad model record %r" % (path, record)


def test_load_accepts_boundary_counts_and_weights(tmp_path):
    path = tmp_path / "edge.lm"
    path.write_text("V ir 0 0\nV ser 3 3\nP ser de 0.0\nP ser a 2.5\n", encoding="utf-8")
    model = NGramModel.load(path)
    assert model.reflexive_probability("ir") == 0.0
    assert model.reflexive_probability("ser") == 1.0
    assert model.preposition_after("ser") == [("a", 1.0), ("de", 0.0)]


def test_zero_preposition_mass_reads_as_no_preposition(tmp_path):
    path = tmp_path / "zero.lm"
    path.write_text("V comer 1 0\nP comer de 0.0\nP comer a 0.0\n", encoding="utf-8")
    model = NGramModel.load(path)
    assert model.known("comer")
    assert model.preposition_after("comer") == []
    assert model.top_preposition("comer") is None


@pytest.mark.parametrize(
    "records, line, reason",
    [
        (
            "V ir 4 1\nP ir a 1.0\nV ir 9 2\n",
            4,
            "repeated V record 'V ir 9 2' (first on line 2)",
        ),
        (
            "V ir 4 1\nP ir a 1.0\nP ir de 0.5\nP ir a 3.0\n",
            5,
            "repeated P record 'P ir a 3.0' (first on line 3)",
        ),
        (
            "V ser 3 0\nP ir a 1.0\nV ir 4 1\n",
            3,
            "P record 'P ir a 1.0' before the V record of its verb",
        ),
    ],
    ids=["repeated-verb", "repeated-preposition", "preposition-before-verb"],
)
def test_load_rejects_records_save_never_writes(tmp_path, records, line, reason):
    path = tmp_path / "bad.lm"
    path.write_text("# verb usage model v1\n" + records, encoding="utf-8")
    with pytest.raises(ModelError) as raised:
        NGramModel.load(path)
    assert str(raised.value) == "line %d: %s: %s" % (line, path, reason)


def test_load_keeps_one_record_per_verb_and_preposition(data_dir):
    path = data_dir / "toy.lm"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 21
    records = lines[1:]
    model = NGramModel.load(path)
    verbs = [record.split()[1] for record in records if record.startswith("V ")]
    assert model.verbs() == verbs
    assert sum(len(model.preposition_after(verb)) for verb in verbs) == len(records) - len(verbs)
    assert model.total_count("ir") == 4
    assert model.raw_preposition_weight("ir", "a") == 3.5
