"""The package's import surface: lazy exports, and what a CLI process loads."""

import os
import subprocess
import sys

import pytest

import fraseo

# Every name ``from fraseo import ...`` accepted when the package still
# imported all of its submodules eagerly.
EXPORTED = (
    "AllowlistOracle", "MergeReport", "SourceRecord", "build_lexicon", "extract_and_map",
    "load_source_records", "map_category", "merge", "normalize_category", "unify_entries",
    "verify", "CycleError", "EmptyInputError", "EvaluationError", "FraseoError",
    "GrammarError", "GrammarParseError", "InflectionMiss", "LexiconConflictError",
    "LexiconError", "LexiconParseError", "ModelError", "NoStructureError", "NoVerbError",
    "PlanningError", "UndefinedSymbolError", "AnnotationRecord", "CoincidenceMatrix",
    "CorpusItem", "ExactMatchReport", "ReliabilityMatrix", "accuracy",
    "coincidence_matrix", "consensus", "exact_match_rate", "krippendorff_alpha",
    "load_annotations", "load_corpus", "pairwise_agreement", "AdverbClass",
    "FeatureBundle", "Gender", "LexicalCategory", "Mood", "Number", "Person", "Tense",
    "Grammar", "GrammarRule", "TreeNode", "dfs_paths", "enumerate_trees", "load_grammar",
    "match_leaf_sequence", "parse_grammar", "LexicalEntry", "Lexicon", "WordForm",
    "inflect", "load_lexicon", "lookup_form", "lookup_lemma", "save_lexicon", "NGramModel",
    "train_file", "train_model", "GenerationResult", "Resources", "generate",
    "load_default_resources", "load_resources", "InputToken", "SentenceMode",
    "SentencePlan", "detect_mode", "insert_default_subject", "plan_structures",
    "select_tense", "split_subject_predicate", "tokenize_and_resolve", "AgreementResult",
    "RealizedSentence", "apply_contractions", "infer_agreement", "load_polarity_pairs",
    "realize",
)


def run_python(script, *flags):
    """Run ``script`` in a fresh interpreter started with ``flags``; its stdout lines."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_generate_loads_no_tool_modules():
    lines = run_python(
        "import sys\n"
        "import fraseo\n"
        "print(sorted(name for name in sys.modules if name.startswith('fraseo.')))\n"
        "import fraseo.cli\n"
        "status = fraseo.cli.main(['generate', 'dibujar', 'animales'])\n"
        "print(status, 'fraseo.builder' in sys.modules, 'fraseo.evaluation' in sys.modules)\n"
    )
    assert lines[0] == "[]"  # a bare import loads no submodule
    assert lines[1] == "Yo dibujo animales."
    assert lines[-1] == "0 False False"


# Standard-library modules a generate process leaves unloaded, each costing
# milliseconds of cold start: ``dataclasses`` brings ``inspect`` with it.
COLD_START_MODULES = ("dataclasses", "inspect", "json")


def modules_loaded_by(statements, modules=COLD_START_MODULES, *flags):
    """The ``modules`` that ``statements`` loads in a fresh interpreter.

    Modules the interpreter had loaded before the statements ran (by a site
    hook, say) do not count.
    """
    lines = run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        + statements
        + "\nprint(sorted(set(%r) & (set(sys.modules) - before)))\n" % (modules,),
        *flags,
    )
    return lines[-1]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["generate", "dibujar", "animales"], "[]"),
        (["generate", "--format", "json", "dibujar", "animales"], "['json']"),
        (["generate", "perro", "azul"], "[]"),  # no verb: echoed
    ],
    ids=["plain", "json", "echo"],
)
def test_generate_loads_no_dataclasses(argv, loaded):
    assert modules_loaded_by("import fraseo.cli\nfraseo.cli.main(%r)" % (argv,)) == loaded


def test_default_resources_load_no_dataclasses():
    statements = "import fraseo\nfraseo.load_default_resources()"
    assert modules_loaded_by(statements) == "[]"


# Modules a generate process leaves unloaded that a site hook may preload
# (a ``.pth`` file importing them), so only an interpreter started without
# ``site`` shows whether fraseo loads them: ``tempfile`` is needed only to
# write files, ``importlib.resources`` not at all.
SITE_PRELOADED_MODULES = ("tempfile", "importlib.resources")


def test_generate_without_site_loads_no_tempfile_or_resources():
    package_root = os.path.dirname(os.path.dirname(fraseo.__file__))
    statements = (
        "sys.path.insert(0, %r)\n"
        "import fraseo.cli\n"
        "fraseo.cli.main(['generate', 'dibujar', 'animales'])" % package_root
    )
    assert modules_loaded_by(statements, SITE_PRELOADED_MODULES, "-S") == "[]"


def test_submodules_resolve_after_bare_import():
    lines = run_python(
        "import fraseo\n"
        "print(fraseo.planner.__name__, fraseo.cli.__name__, fraseo.fileio.__name__)\n"
        "print(fraseo.build_lexicon is fraseo.builder.build_lexicon)\n"
    )
    assert lines == ["fraseo.planner fraseo.cli fraseo.fileio", "True"]


def test_every_export_resolves():
    assert len(EXPORTED) == 86
    assert sorted(fraseo.__all__) == sorted(EXPORTED)
    for name in EXPORTED:
        value = getattr(fraseo, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from fraseo import *", namespace)
    assert all(namespace[name] is getattr(fraseo, name) for name in EXPORTED)
    assert set(EXPORTED) <= set(dir(fraseo))
    assert fraseo.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fraseo.no_such_name
    assert not hasattr(fraseo, "plan")
    with pytest.raises(ImportError):
        exec("from fraseo import no_such_name", {})
