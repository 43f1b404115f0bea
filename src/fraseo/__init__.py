"""Keyword-to-sentence surface realization for Spanish.

The package turns short keyword lists into grammatical, orthographically
correct Spanish sentences: a feature-annotated grammar proposes
structures, a morphological lexicon inflects them, and a small verb
usage model picks prepositions and reflexive readings. Companion modules
build merged lexicons from heterogeneous sources, train the usage model,
and score generation output and annotator agreement.
"""

from .builder import (
    AllowlistOracle,
    MergeReport,
    SourceRecord,
    build_lexicon,
    extract_and_map,
    load_source_records,
    map_category,
    merge,
    normalize_category,
    unify_entries,
    verify,
)
from .errors import (
    CycleError,
    EmptyInputError,
    EvaluationError,
    FraseoError,
    GrammarError,
    GrammarParseError,
    InflectionMiss,
    LexiconConflictError,
    LexiconError,
    LexiconParseError,
    ModelError,
    NoStructureError,
    NoVerbError,
    PlanningError,
    UndefinedSymbolError,
)
from .evaluation import (
    AnnotationRecord,
    CoincidenceMatrix,
    CorpusItem,
    ExactMatchReport,
    ReliabilityMatrix,
    accuracy,
    coincidence_matrix,
    consensus,
    exact_match_rate,
    krippendorff_alpha,
    load_annotations,
    load_corpus,
    pairwise_agreement,
)
from .features import (
    AdverbClass,
    FeatureBundle,
    Gender,
    LexicalCategory,
    Mood,
    Number,
    Person,
    Tense,
)
from .grammar import (
    Grammar,
    GrammarRule,
    TreeNode,
    dfs_paths,
    enumerate_trees,
    load_grammar,
    match_leaf_sequence,
    parse_grammar,
)
from .lexicon import (
    LexicalEntry,
    Lexicon,
    WordForm,
    inflect,
    load_lexicon,
    lookup_form,
    lookup_lemma,
    save_lexicon,
)
from .lm import NGramModel, train_file, train_model
from .pipeline import GenerationResult, Resources, generate, load_default_resources, load_resources
from .planner import (
    InputToken,
    SentenceMode,
    SentencePlan,
    detect_mode,
    insert_default_subject,
    plan_structures,
    select_tense,
    split_subject_predicate,
    tokenize_and_resolve,
)
from .realizer import (
    AgreementResult,
    RealizedSentence,
    apply_contractions,
    infer_agreement,
    load_polarity_pairs,
    realize,
)

__version__ = "0.1.0"
