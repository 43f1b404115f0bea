import re

import pytest
from make_golden import golden_inputs, golden_record

from fraseo.errors import CycleError, GrammarParseError, UndefinedSymbolError
from fraseo.grammar import (
    GrammarRule,
    dfs_paths,
    enumerate_trees,
    match_leaf_sequence,
    parse_grammar,
)
from fraseo.pipeline import load_resources

SMALL_GRAMMAR = """
S -> NP verb
S -> NP verb NP
NP -> determiner noun
NP -> noun
"""


def test_parse_grammar_structure():
    grammar = parse_grammar(SMALL_GRAMMAR)
    assert grammar.start == "S"
    assert len(grammar.rules) == 4
    assert [rule.head for rule in grammar.rules_for["NP"]] == ["NP", "NP"]
    assert str(grammar.rules[0]) == "S -> NP verb"
    assert grammar.rules[2] == GrammarRule("NP", ("determiner", "noun"), 4)


def test_parse_grammar_rejects_undefined_symbols():
    with pytest.raises(UndefinedSymbolError) as raised:
        parse_grammar("S -> verb\nS -> NP verb")
    assert raised.value.line == 2


def test_parse_grammar_rejects_bad_lines():
    with pytest.raises(GrammarParseError):
        parse_grammar("S NP verb")
    with pytest.raises(GrammarParseError):
        parse_grammar("S -> ")
    with pytest.raises(GrammarParseError):
        parse_grammar("noun -> determiner")
    with pytest.raises(GrammarParseError):
        parse_grammar("S(q) -> verb")
    with pytest.raises(GrammarParseError):
        parse_grammar("")


def test_comments_and_blank_lines_ignored():
    grammar = parse_grammar("# top\n\nS -> verb  # inline\n")
    assert grammar.start == "S"
    assert len(grammar.rules) == 1


def test_enumerate_trees_order_and_leaves():
    grammar = parse_grammar(SMALL_GRAMMAR)
    trees = list(enumerate_trees(grammar))
    sequences = [tree.leaf_sequence() for tree in trees]
    assert sequences == [
        ("determiner", "noun", "verb"),
        ("noun", "verb"),
        ("determiner", "noun", "verb", "determiner", "noun"),
        ("determiner", "noun", "verb", "noun"),
        ("noun", "verb", "determiner", "noun"),
        ("noun", "verb", "noun"),
    ]


def test_recursive_grammar_is_depth_bounded():
    grammar = parse_grammar("X -> noun\nX -> noun X", depth_limit=3)
    trees = list(enumerate_trees(grammar))
    # One tree per nesting level up to the bound.
    assert [len(tree.leaf_sequence()) for tree in trees] == [1, 2, 3]


def test_match_leaf_sequence_agrees_with_enumeration(grammar, data_dir):
    small = parse_grammar(SMALL_GRAMMAR)
    wanted = ("noun", "verb", "determiner", "noun")
    matched = match_leaf_sequence(small, wanted)
    assert [tree.leaf_sequence() for tree in matched] == [wanted]
    by_filter = [
        tree for tree in enumerate_trees(small) if tree.leaf_sequence() == wanted
    ]
    assert [str(tree) for tree in matched] == [str(tree) for tree in by_filter]
    assert match_leaf_sequence(small, ("verb",)) == []
    with pytest.raises(ValueError):
        match_leaf_sequence(small, ())

    # The bundled grammar: prepositional syntagm, coordination, two-verb
    # predicate, and a chain of prepositional syntagms one level deeper
    # than depth_limit allows.
    too_deep = ("noun", "verb", "noun") + ("preposition", "noun") * 3
    cases = [
        ("determiner", "noun", "verb", "preposition", "determiner", "noun"),
        ("noun", "conjunction", "noun", "verb", "noun"),
        ("pronoun", "verb", "preposition", "verb", "noun"),
        too_deep,
    ]
    by_filter = {wanted: [] for wanted in cases}
    for tree in enumerate_trees(grammar):
        sequence = tree.leaf_sequence()
        if sequence in by_filter:
            by_filter[sequence].append(str(tree))
    for wanted in cases:
        matched = [str(tree) for tree in match_leaf_sequence(grammar, wanted)]
        assert matched == by_filter[wanted], wanted
    assert all(by_filter[wanted] for wanted in cases[:3])
    assert match_leaf_sequence(grammar, too_deep) == []
    deeper = parse_grammar(
        (data_dir / "spanish.grammar").read_text(encoding="utf-8"),
        depth_limit=grammar.depth_limit + 1,
    )
    assert match_leaf_sequence(deeper, too_deep)


def test_bundled_grammar_enumeration_is_stable(grammar):
    first = sum(1 for _ in enumerate_trees(grammar))
    second = sum(1 for _ in enumerate_trees(grammar))
    assert first == second == 66779


def test_generation_ignores_agreement_variables(resources, data_dir, tmp_path):
    text = (data_dir / "spanish.grammar").read_text(encoding="utf-8")
    bare = tmp_path / "bare.grammar"
    bare.write_text(re.sub(r"\([^()\n]*\)", "", text), encoding="utf-8")
    rule_lines = [line for line in bare.read_text(encoding="utf-8").splitlines() if "->" in line]
    assert not any("(" in line for line in rule_lines)
    stripped = load_resources(grammar_path=bare)
    assert stripped.grammar.rules == resources.grammar.rules
    for words in golden_inputs(resources.lexicon):
        assert golden_record(words, stripped) == golden_record(words, resources), words
    # The variables are still syntax-checked.
    with pytest.raises(GrammarParseError):
        parse_grammar("S(q) -> verb")


def test_dfs_paths_listed_order():
    adjacency = {1: (2, 3, 4), 2: (5, 6), 4: (7,)}
    assert dfs_paths(1, adjacency) == [(1, 2, 5), (1, 2, 6), (1, 3), (1, 4, 7)]


def test_dfs_paths_single_vertex_and_shared_children():
    assert dfs_paths(1, {}) == [(1,)]
    # Diamond: 4 is reachable twice but visited once.
    adjacency = {1: (2, 3), 2: (4,), 3: (4,)}
    assert dfs_paths(1, adjacency) == [(1, 2, 4)]


def test_dfs_paths_detects_cycles():
    with pytest.raises(CycleError):
        dfs_paths(1, {1: (2,), 2: (1,)})
