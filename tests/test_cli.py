import argparse
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fraseo import cli, lexicon, lm

TESTS_DIR = Path(__file__).resolve().parent


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def test_generate_plain():
    status, out, err = run_cli(["generate", "dibujar", "animales"])
    assert status == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "Yo dibujo animales."
    assert len(lines) == 3


def test_generate_with_zero_preposition_mass(tmp_path):
    """A model whose preposition weights are all 0.0 reads as one with none."""
    zero, none = tmp_path / "zero.lm", tmp_path / "none.lm"
    zero.write_text("V comer 1 0\nP comer de 0.0\n", encoding="utf-8")
    none.write_text("V comer 1 0\n", encoding="utf-8")
    runs = [run_cli(["generate", "--lm", str(path), "perro", "comer", "manzana"])
            for path in (zero, none)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert runs[0][1].splitlines()[0] == "El perro come la manzana."


def test_generate_json_is_canonical():
    status, out, _ = run_cli(["generate", "--format", "json", "lobo", "comer", "niñas"])
    assert status == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    assert payload["input"] == ["lobo", "comer", "niñas"]
    assert payload["mode"] == "affirmative"
    top = payload["candidates"][0]
    assert top["text"] == "El lobo come niñas."
    assert top["tree"].startswith("(S ")
    assert {"position", "category", "rationale"} <= set(top["insertions"][0])
    assert any(line.startswith("mode ") for line in top["trace"])


def _help_texts(formatter_class):
    """``--help`` text of the parser and of every subcommand, built with ``formatter_class``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_HelpFormatter", formatter_class)
        parser = cli.build_parser()
    (commands,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    return [parser.format_help()] + [sub.format_help() for sub in commands.choices.values()]


@pytest.mark.parametrize("columns", ["60", "120", None])
def test_help_matches_the_default_formatter(columns, monkeypatch):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    texts = _help_texts(cli._HelpFormatter)
    assert len(texts) == 7
    assert texts == _help_texts(argparse.HelpFormatter)
    if columns is not None:
        assert cli._HelpFormatter("fraseo")._width == int(columns) - 2


def test_generate_echo_exit_2():
    status, out, _ = run_cli(["generate", "caer", "sal", "a", "mantel"])
    assert status == 2
    assert out.strip() == "caer sal a mantel"
    status, out, _ = run_cli(
        ["generate", "--format", "json", "caer", "sal", "a", "mantel"]
    )
    assert status == 2
    payload = json.loads(out)
    assert payload["echo"] == "caer sal a mantel"
    assert payload["candidates"] == []
    assert payload["mode"] is None


def test_generate_question_marker():
    status, out, _ = run_cli(["generate", "pájaros", "poder", "volar", "?"])
    assert status == 0
    assert out.splitlines()[0] == "¿Los pájaros pueden volar?"


def test_bad_configuration_exit_1(tmp_path):
    missing = str(tmp_path / "nope.xml")
    status, out, err = run_cli(["generate", "--lexicon", missing, "comer"])
    assert status == 1
    assert out == ""
    assert err.startswith("error: ")


def test_unwritten_reflexive_value_exits_1_with_its_line(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text(
        "<lexicon>\n"
        '<entry lemma="lavar" cat="verb" reflexive="yes"><form surface="lavar"/></entry>\n'
        "</lexicon>\n",
        encoding="utf-8",
    )
    status, out, err = run_cli(["generate", "--lexicon", str(path), "lavar"])
    assert (status, out) == (1, "")
    assert err == "error: line 2: %s: bad reflexive value 'yes' (true or false)\n" % path


def test_format_is_a_generate_option_only(bundled_fixtures):
    corpus = str(bundled_fixtures / "exact_match_corpus.tsv")
    for argv in (
        ["evaluate", "--format", "json", "--corpus", corpus],
        ["repl", "--format", "json"],
    ):
        with pytest.raises(SystemExit) as exited:
            run_cli(argv)
        assert exited.value.code == 2
    status, out, _ = run_cli(["generate", "--format", "json", "dibujar", "animales"])
    assert status == 0
    assert json.loads(out)["candidates"][0]["text"] == "Yo dibujo animales."


def test_max_candidates_must_not_be_negative(bundled_fixtures):
    corpus = str(bundled_fixtures / "exact_match_corpus.tsv")
    for argv in (
        ["generate", "--max-candidates", "-1", "dibujar", "animales"],
        ["repl", "--max-candidates", "-1"],
        ["evaluate", "--max-candidates", "-1", "--corpus", corpus],
    ):
        with pytest.raises(SystemExit) as exited:
            run_cli(argv)
        assert exited.value.code == 2


def test_evaluate_bundled_corpus(bundled_fixtures):
    status, out, _ = run_cli(
        ["evaluate", "--corpus", str(bundled_fixtures / "exact_match_corpus.tsv")]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["total"] == 9
    assert payload["matched"] == 9
    assert payload["rate"] == 1.0
    assert (payload["top1"], payload["top3"]) == (4, 6)
    assert payload["mrr"] == pytest.approx(259 / 432)
    assert all(outcome["status"] == "matched" for outcome in payload["outcomes"])


def test_evaluate_unreachable_corpus(bundled_fixtures):
    status, out, _ = run_cli(
        ["evaluate", "--corpus", str(bundled_fixtures / "non_svo_corpus.tsv")]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["rate"] == 0.0
    assert payload["outcomes"][0]["status"] == "echo"


def test_closed_output_pipe_exits_141_quietly(bundled_fixtures):
    corpus = str(bundled_fixtures / "exact_match_corpus.tsv")
    for argv in (
        ["evaluate", "--corpus", corpus],
        ["generate", "--format", "json", "dibujar", "animales"],
        ["generate", "dibujar", "animales"],
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "fraseo.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # The child is still importing, so nothing is written yet.
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141, argv
        assert err == b"", argv


def test_agreement_perfect(test_fixtures):
    status, out, _ = run_cli(
        ["agreement", "--annotations", str(test_fixtures / "perfect_annotations.xml")]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["alpha"] == 1.0
    assert payload["accuracy"] == 1.0
    assert payload["degenerate"] is False
    assert all(value == 1.0 for value in payload["pairwise_alpha"].values())


def test_agreement_matches_frozen_expectations(test_fixtures):
    expected = json.loads(
        (test_fixtures / "random_annotations_expected.json").read_text(encoding="utf-8")
    )
    status, out, _ = run_cli(
        ["agreement", "--annotations", str(test_fixtures / "random_annotations.xml")]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["degenerate"] == expected["degenerate"]
    assert payload["alpha"] == pytest.approx(expected["alpha"], abs=1e-9)
    assert payload["accuracy"] == pytest.approx(expected["accuracy"], abs=1e-9)
    for key in ("pairwise_alpha", "pairwise_accuracy"):
        assert set(payload[key]) == set(expected[key])
        for pair, value in expected[key].items():
            assert payload[key][pair] == pytest.approx(value, abs=1e-9)


def test_build_lexicon_subcommand(bundled_fixtures, tmp_path):
    out_path = tmp_path / "merged.xml"
    report_path = tmp_path / "report.json"
    status, out, _ = run_cli(
        [
            "build-lexicon",
            "--primary", str(bundled_fixtures / "source_a.xml"),
            "--expansion", str(bundled_fixtures / "source_b.xml"),
            "--oracle", str(bundled_fixtures / "allowlist.tsv"),
            "--out", str(out_path),
            "--report", str(report_path),
        ]
    )
    assert status == 0
    assert out.strip() == "wrote 7 entries to %s" % out_path
    merged = lexicon.load_lexicon(out_path)
    assert len(merged) == 7
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["merged_common"] == 2
    assert report["merged_unique"] == 5
    assert report["dropped_records"] == 3


def test_build_lexicon_bad_source_names_file_and_line(bundled_fixtures, tmp_path):
    primary = tmp_path / "primary.xml"
    primary.write_text(
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<lexicon source="alpha">\n'
        '  <entry lemma="casa" cat="noun"><form surface="casa"/></entry>\n'
        '  <entry lemma="gato" cat="noun"><form surface="gato" number="x"/></entry>\n'
        "</lexicon>\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "merged.xml"
    status, out, err = run_cli(
        [
            "build-lexicon",
            "--primary", str(primary),
            "--expansion", str(bundled_fixtures / "source_b.xml"),
            "--oracle", str(bundled_fixtures / "allowlist.tsv"),
            "--out", str(out_path),
        ]
    )
    assert status == 1
    assert out == ""
    assert "line 4" in err
    assert "primary.xml" in err
    assert not out_path.exists()


def test_bad_resource_files_name_file_and_line(bundled_fixtures, tmp_path):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text("a target with no tab\n", encoding="utf-8")
    model = tmp_path / "bad.lm"
    model.write_text("V ir four 0\n", encoding="utf-8")
    allowlist = tmp_path / "bad_allowlist.tsv"
    allowlist.write_text("casa\tbogus\n", encoding="utf-8")
    good_corpus = str(bundled_fixtures / "exact_match_corpus.tsv")
    for argv, name in (
        (["evaluate", "--corpus", str(corpus)], "bad.tsv"),
        (["evaluate", "--lm", str(model), "--corpus", good_corpus], "bad.lm"),
        (
            [
                "build-lexicon",
                "--primary", str(bundled_fixtures / "source_a.xml"),
                "--expansion", str(bundled_fixtures / "source_b.xml"),
                "--oracle", str(allowlist),
                "--out", str(tmp_path / "merged.xml"),
            ],
            "bad_allowlist.tsv",
        ),
    ):
        status, out, err = run_cli(argv)
        assert status == 1, name
        assert out == ""
        assert name in err and "line 1" in err, err


def test_bad_annotation_file_names_file_and_line(tmp_path):
    path = tmp_path / "bad_annotations.xml"

    def annotation(attrs, rating="3", extra=""):
        return "<annotation %s><error>a</error><rating>%s</rating>%s</annotation>" % (
            attrs, rating, extra
        )

    good = annotation('sentence="s1" annotator="a1"')
    for bad, reason in (
        ("<note/>", "unexpected element <note>"),
        (annotation('sentence="s2"'), "annotation needs sentence and annotator attributes"),
        (annotation('sentence="s2" annotator="a1"', rating="nine"), "bad rating 'nine'"),
        (
            annotation('sentence="s2" annotator="a1"', extra="<best>first</best>"),
            "bad best index 'first'",
        ),
        (
            annotation('sentence="s1" annotator="a1"', rating="4"),
            "repeated annotation for sentence s1 annotator a1 (first on line 2)",
        ),
    ):
        path.write_text(
            "<annotations>\n  %s\n\n  %s\n</annotations>\n" % (good, bad), encoding="utf-8"
        )
        status, out, err = run_cli(["agreement", "--annotations", str(path)])
        assert status == 1, reason
        assert out == ""
        assert err.startswith("error: line 4: %s: %s" % (path, reason)), err


def _source_file(path, source, entry):
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<lexicon source="%s">\n  %s\n</lexicon>\n' % (source, entry),
        encoding="utf-8",
    )
    return str(path)


def _build_lexicon(primary, expansion, bundled_fixtures, out_path):
    return run_cli(
        [
            "build-lexicon",
            "--primary", primary,
            "--expansion", expansion,
            "--oracle", str(bundled_fixtures / "allowlist.tsv"),
            "--out", str(out_path),
        ]
    )


def test_build_lexicon_invalid_merged_entry_exits_1(bundled_fixtures, tmp_path):
    # The expansion source "beta" also has a valid casa/noun: only the
    # record that fails on its own is named.
    primary = _source_file(
        tmp_path / "primary.xml",
        "alpha",
        '<entry lemma="casa" cat="noun"><form surface="casa" tense="pres"/></entry>',
    )
    out_path = tmp_path / "merged.xml"
    status, out, err = _build_lexicon(
        primary, str(bundled_fixtures / "source_b.xml"), bundled_fixtures, out_path
    )
    assert status == 1
    assert out == ""
    assert err.startswith("error: casa/noun from alpha:")
    assert "beta" not in err
    assert "tense present requires" in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_build_lexicon_invalid_pooled_forms_name_every_source(bundled_fixtures, tmp_path):
    # Each record is valid alone; pooled, "lavar" is an infinitive with a person.
    primary = _source_file(
        tmp_path / "primary.xml",
        "alpha",
        '<entry lemma="lavar" cat="verb"><form surface="lavar" mood="inf"/></entry>',
    )
    expansion = _source_file(
        tmp_path / "expansion.xml",
        "beta",
        '<entry lemma="lavar" cat="verb"><form surface="lavar" person="1"/></entry>',
    )
    out_path = tmp_path / "merged.xml"
    status, out, err = _build_lexicon(primary, expansion, bundled_fixtures, out_path)
    assert status == 1
    assert out == ""
    assert err.startswith("error: lavar/verb from alpha, beta:")
    assert "non-finite mood infinitive cannot carry tense or person" in err
    assert not out_path.exists()


def _grammar_file(tmp_path, data_dir, name, edit):
    text = (data_dir / "spanish.grammar").read_text(encoding="utf-8")
    path = tmp_path / name
    path.write_text(edit(text), encoding="utf-8")
    return str(path)


def test_generate_rejects_unknown_nonterminal(data_dir, tmp_path):
    renamed = _grammar_file(
        tmp_path, data_dir, "np.grammar", lambda text: re.sub(r"\bSN\b", "NP", text)
    )
    status, out, err = run_cli(["generate", "--grammar", renamed, "niñas", "comer", "manzanas"])
    assert status == 1
    assert out == ""
    assert "np.grammar" in err
    assert "line 27" in err
    assert "unknown nonterminal 'NP'" in err


# Per reader: the command reading FILE, the file's bytes with 0xE9 (Latin-1
# "é") where UTF-8 is expected, and the line of that byte, counting \r\n and
# a lone \r as one line end.
NON_UTF8_FILES = {
    "lm": (
        ["generate", "--lm", "FILE", "dibujar", "animales"],
        b"# verb usage model v1\nV ir 3 0\nV caf\xe9 1 0\n",
        3,
    ),
    "grammar": (
        ["generate", "--grammar", "FILE", "dibujar", "animales"],
        b"S -> PRED\r\nPRED -> verb  # caf\xe9\r\n",
        2,
    ),
    "corpus": (["evaluate", "--corpus", "FILE"], b"Uno.\tuno\nDos.\tdos,caf\xe9\n", 2),
    "train": (
        ["train-lm", "--corpus", "FILE", "--out", "OUT"],
        b"a/a/noun\r\nb/b/verb\rcaf\xe9/c/noun\n",
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(NON_UTF8_FILES))
def test_non_utf8_file_names_its_line(tmp_path, name):
    argv, data, line = NON_UTF8_FILES[name]
    path = tmp_path / ("latin1_" + name)
    path.write_bytes(data)
    out_path = tmp_path / "out.lm"
    argv = [{"FILE": str(path), "OUT": str(out_path)}.get(arg, arg) for arg in argv]
    status, out, err = run_cli(argv)
    assert status == 1
    assert out == ""
    assert err == "error: line %d: %s: invalid UTF-8 byte 0xe9\n" % (line, path)
    assert not out_path.exists()


@pytest.mark.parametrize("encoding", ["utf-inf", "rot13", "utf-32"])
def test_undecodable_xml_encoding_names_the_declaration_line(
    encoding, bundled_fixtures, data_dir, test_fixtures, tmp_path
):
    """An encoding expat cannot use fails at the declaration, with no traceback."""
    out_path = tmp_path / "merged.xml"
    for option, source, argv in (
        ("--lexicon", data_dir / "sample_lexicon.xml", ["generate", "perro", "comer"]),
        (
            "--primary",
            bundled_fixtures / "source_a.xml",
            ["build-lexicon", "--expansion", str(bundled_fixtures / "source_b.xml"),
             "--oracle", str(bundled_fixtures / "allowlist.tsv"), "--out", str(out_path)],
        ),
        (
            "--expansion",
            bundled_fixtures / "source_b.xml",
            ["build-lexicon", "--primary", str(bundled_fixtures / "source_a.xml"),
             "--oracle", str(bundled_fixtures / "allowlist.tsv"), "--out", str(out_path)],
        ),
        ("--annotations", test_fixtures / "perfect_annotations.xml", ["agreement"]),
    ):
        text = source.read_text(encoding="utf-8")
        assert text.startswith('<?xml version="1.0" encoding="utf-8"?>\n'), source
        path = tmp_path / source.name
        path.write_text(text.replace("utf-8", encoding, 1), encoding="utf-8")
        status, out, err = run_cli(argv + [option, str(path)])
        assert status == 1, option
        assert out == ""
        assert err.startswith("error: line 1: %s: bad XML encoding declaration: " % path), err
        assert "Traceback" not in err
        assert not out_path.exists()


def test_generate_rejects_malformed_grammar_naming_file_and_line(tmp_path):
    path = tmp_path / "bad.grammar"
    path.write_text("S -> PRED\nPRED -> verb\n\nPRED verb OBJ\n", encoding="utf-8")
    status, out, err = run_cli(["generate", "--grammar", str(path), "niñas", "comer"])
    assert status == 1
    assert out == ""
    assert err == "error: line 4: %s: missing '->'\n" % path


def test_generate_rejects_other_start_symbol(data_dir, tmp_path):
    path = tmp_path / "start.grammar"
    path.write_text("X -> SNS PRED\nSNS -> noun\nPRED -> verb\n", encoding="utf-8")
    status, out, err = run_cli(["generate", "--grammar", str(path), "niñas", "comer"])
    assert status == 1
    assert out == ""
    assert "start.grammar" in err
    assert "start symbol 'X'" in err


def test_generate_with_subset_grammar(data_dir, tmp_path):
    subset = _grammar_file(
        tmp_path,
        data_dir,
        "subset.grammar",
        lambda text: "".join(
            line for line in text.splitlines(keepends=True) if "SNC" not in line
        ),
    )
    status, out, err = run_cli(["generate", "--grammar", subset, "niñas", "comer", "manzanas"])
    assert status == 0
    assert err == ""
    assert out.splitlines() == [
        "Las niñas comen manzanas.",
        "Las niñas comen las manzanas.",
        "Niñas comen manzanas.",
    ]
    status, out, _ = run_cli(["generate", "--grammar", subset, "perro", "y", "gato", "comer"])
    assert status == 2


def test_train_lm_subcommand(data_dir, tmp_path):
    out_path = tmp_path / "toy.lm"
    status, out, _ = run_cli(
        ["train-lm", "--corpus", str(data_dir / "toy_corpus.tagged"), "--out", str(out_path)]
    )
    assert status == 0
    assert out.strip() == "trained model covering 15 verbs; skipped 0 malformed lines"
    model = lm.NGramModel.load(out_path)
    assert model.top_preposition("ir") == ("a", 1.0)


def _writer_argv(command, out, bundled_fixtures, data_dir):
    if command == "train-lm":
        return ["train-lm", "--corpus", str(data_dir / "toy_corpus.tagged"), "--out", out]
    return [
        "build-lexicon",
        "--primary", str(bundled_fixtures / "source_a.xml"),
        "--expansion", str(bundled_fixtures / "source_b.xml"),
        "--oracle", str(bundled_fixtures / "allowlist.tsv"),
        "--out", out,
    ]


@pytest.mark.parametrize("command", ["train-lm", "build-lexicon"])
def test_failed_write_names_its_target(command, bundled_fixtures, data_dir, tmp_path):
    """An output that cannot be written fails as ``path: reason``, leaving no temp file."""
    missing = str(tmp_path / "missing_dir" / "out")
    directory = tmp_path / "some_dir"
    directory.mkdir()
    cases = (
        (missing, "%s: No such file or directory" % missing),
        (str(directory), "%s: Is a directory" % directory),
    )
    for out, reason in cases:
        status, stdout, err = run_cli(_writer_argv(command, out, bundled_fixtures, data_dir))
        assert (status, stdout, err) == (1, "", "error: %s\n" % reason)
    assert [path.name for path in tmp_path.rglob("*")] == ["some_dir"]


def test_repl_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "fraseo.cli", "repl"],
        input="dibujar animales\ncaer sal a mantel\nexit\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "Yo dibujo animales." in proc.stdout
    assert "caer sal a mantel" in proc.stdout
    assert proc.stdout.count("> ") == 3


def test_repl_eof_exits_cleanly():
    proc = subprocess.run(
        [sys.executable, "-m", "fraseo.cli", "repl"],
        input="",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
