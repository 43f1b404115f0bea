"""Keyword-to-sentence surface realization for Spanish.

The package turns short keyword lists into grammatical, orthographically
correct Spanish sentences: a feature-annotated grammar proposes
structures, a morphological lexicon inflects them, and a small verb
usage model picks prepositions and reflexive readings. Companion modules
build merged lexicons from heterogeneous sources, train the usage model,
and score generation output and annotator agreement.

Exports load lazily (PEP 562): ``import fraseo`` imports no submodule,
and the first access to an exported name, or to a submodule such as
``fraseo.planner``, imports the submodule that defines it. So a
``fraseo generate`` process never loads ``builder`` or ``evaluation``.
"""

import importlib

__version__ = "0.1.0"

# Every submodule and the names the package exports from it.
_EXPORTS = {
    "builder": (
        "AllowlistOracle",
        "MergeReport",
        "SourceRecord",
        "build_lexicon",
        "extract_and_map",
        "load_source_records",
        "map_category",
        "merge",
        "normalize_category",
        "unify_entries",
        "verify",
    ),
    "cli": (),
    "errors": (
        "CycleError",
        "EmptyInputError",
        "EvaluationError",
        "FraseoError",
        "GrammarError",
        "GrammarParseError",
        "InflectionMiss",
        "LexiconConflictError",
        "LexiconError",
        "LexiconParseError",
        "ModelError",
        "NoStructureError",
        "NoVerbError",
        "PlanningError",
        "UndefinedSymbolError",
    ),
    "evaluation": (
        "AnnotationRecord",
        "CoincidenceMatrix",
        "CorpusItem",
        "ExactMatchReport",
        "ReliabilityMatrix",
        "accuracy",
        "coincidence_matrix",
        "consensus",
        "exact_match_rate",
        "krippendorff_alpha",
        "load_annotations",
        "load_corpus",
        "pairwise_agreement",
    ),
    "features": (
        "AdverbClass",
        "FeatureBundle",
        "Gender",
        "LexicalCategory",
        "Mood",
        "Number",
        "Person",
        "Tense",
    ),
    "fileio": (),
    "grammar": (
        "Grammar",
        "GrammarRule",
        "TreeNode",
        "dfs_paths",
        "enumerate_trees",
        "load_grammar",
        "parse_grammar",
    ),
    "lexicon": (
        "LexicalEntry",
        "Lexicon",
        "WordForm",
        "inflect",
        "load_lexicon",
        "lookup_form",
        "lookup_lemma",
        "save_lexicon",
    ),
    "lm": ("NGramModel", "train_file", "train_model"),
    "pipeline": (
        "GenerationResult",
        "Resources",
        "generate",
        "load_default_resources",
        "load_resources",
    ),
    "planner": (
        "InputToken",
        "SentenceMode",
        "SentencePlan",
        "detect_mode",
        "insert_default_subject",
        "plan_structures",
        "select_tense",
        "split_subject_predicate",
        "tokenize_and_resolve",
    ),
    "realizer": (
        "AgreementResult",
        "RealizedSentence",
        "apply_contractions",
        "infer_agreement",
        "load_polarity_pairs",
        "realize",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the submodule ``name`` or the one exporting ``name``, on first use."""
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
