import itertools
import math
import pathlib
import re

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from make_golden import golden_inputs, golden_record
from oracles import match_leaf_sequence, reference_covers, reference_derive

import fraseo.grammar as grammar_module
from fraseo.errors import CycleError, GrammarParseError, UndefinedSymbolError
from fraseo.fileio import bundled
from fraseo.grammar import (
    TERMINAL_BITS,
    Grammar,
    GrammarRule,
    covers,
    derive,
    dfs_paths,
    enumerate_trees,
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


def test_a_replaced_grammar_starts_at_its_first_rule():
    grammar = parse_grammar("S -> noun")
    other = parse_grammar("X -> verb")
    swapped = grammar.replaced(rules=other.rules)
    assert swapped.start == other.start == "X"
    assert swapped == other and list(swapped.rules_for) == ["X"]
    assert [tree.leaf_sequence() for tree in enumerate_trees(swapped)] == [("verb",)]


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
    grammar = parse_grammar("X -> noun\nX -> noun X").replaced(depth_limit=3)
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
        (data_dir / "spanish.grammar").read_text(encoding="utf-8")
    ).replaced(depth_limit=grammar.depth_limit + 1)
    assert match_leaf_sequence(deeper, too_deep)


def test_match_leaf_sequence_lookahead_keeps_every_derivation(grammar, monkeypatch):
    """The pruned match yields the unpruned derivations that reach the end, in order."""
    work = {"pruned": 0, "full": 0}

    def run(grammar, fill, state, masks, side):
        def counting(*args):
            work[side] += 1
            return fill(*args)

        found = derive(grammar, counting, state, masks)
        return [(str(tree), payloads, end) for tree, payloads, end in found]

    def both(grammar, fill, state=None, masks=None, insertable=frozenset()):
        assert masks is not None and insertable == frozenset()
        pruned = run(grammar, fill, state, masks, "pruned")
        full = run(grammar, fill, state, None, "full")
        assert pruned == [found for found in full if found[2][0] == len(masks)]
        return iter(derive(grammar, fill, state, masks))

    monkeypatch.setattr(oracles, "derive", both)
    cases = [
        ("determiner", "noun", "verb", "preposition", "determiner", "noun"),
        ("noun", "conjunction", "noun", "verb", "noun"),
        ("pronoun", "verb", "preposition", "verb", "noun"),
        ("noun", "verb", "noun") + ("preposition", "noun") * 3,
        ("verb", "noun"),
        ("noun", "noun", "noun"),
        ("S", "verb"),
    ]
    matched = [len(match_leaf_sequence(grammar, cats)) for cats in cases]
    assert matched == [1, 1, 1, 0, 1, 0, 0]
    assert work["pruned"] * 3 < work["full"]


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


# LINK derives only insertable words and LOOP never terminates.
LOOKAHEAD_GRAMMAR = """
S -> NP verb NP
S -> LINK NP verb
S -> verb LOOP
NP -> determiner noun
NP -> determiner adjective
NP -> pronoun
LINK -> conjunction
LINK -> conjunction LINK
LOOP -> noun LOOP
"""


def mask(*names):
    return sum(TERMINAL_BITS[name] for name in names)


NOMINAL_FIRST = mask("determiner", "noun", "adjective", "pronoun")


def test_suffix_bounds_min_tokens_and_first_sets():
    grammar = parse_grammar(LOOKAHEAD_GRAMMAR)
    insertable = frozenset({"determiner", "conjunction"})
    table = grammar.table(insertable)
    bounds = {
        tuple(cell[0] for cell in row): tuple(cell[4:] for cell in row)
        for rows in table.rows.values()
        for row in rows
    }
    assert bounds == {
        ("NP", "verb", "NP"): ((3, NOMINAL_FIRST), (2, mask("verb")), (1, NOMINAL_FIRST)),
        ("LINK", "NP", "verb"): (
            (2, NOMINAL_FIRST | mask("conjunction")), (2, NOMINAL_FIRST), (1, mask("verb"))
        ),
        ("verb", "LOOP"): ((math.inf, mask("verb")), (math.inf, mask("noun"))),
        ("determiner", "noun"): ((1, mask("determiner", "noun")), (1, mask("noun"))),
        ("determiner", "adjective"): (
            (1, mask("determiner", "adjective")), (1, mask("adjective"))
        ),
        ("pronoun",): ((1, mask("pronoun")),),
        ("conjunction",): ((0, mask("conjunction")),),
        ("conjunction", "LINK"): ((0, mask("conjunction")), (0, mask("conjunction"))),
        ("noun", "LOOP"): ((math.inf, mask("noun")), (math.inf, mask("noun"))),
    }
    # Each cell also holds the symbol's own bound and its usage slot (None
    # for a terminal); LINK derives no token, so it has FIRST but needs 0.
    assert table.rows["S"][1] == (
        ("LINK", 2, 0, mask("conjunction"), 2, NOMINAL_FIRST | mask("conjunction")),
        ("NP", 1, 1, NOMINAL_FIRST, 2, NOMINAL_FIRST),
        ("verb", None, 1, mask("verb"), 1, mask("verb")),
    )
    # FIRST masks beyond a single terminal bit, with their bits; LINK and
    # LOOP each start with one terminal.
    nominal_bits = sorted(mask(cat) for cat in ("determiner", "noun", "adjective", "pronoun"))
    assert table.unions == ((NOMINAL_FIRST, tuple(nominal_bits)),)
    # Built once per insertable set; without insertables every terminal
    # consumes a token and FIRST stops at the first symbol.
    assert grammar.table(insertable) is table
    plain = grammar.table(frozenset()).rows
    assert plain["S"][1][0][4:] == (3, mask("conjunction"))
    assert plain["S"][0][0][4:] == (3, mask("determiner", "pronoun"))


def test_lookahead_cuts_work_not_derivations():
    grammar = parse_grammar(LOOKAHEAD_GRAMMAR).replaced(depth_limit=3)
    insertable = frozenset({"determiner", "conjunction"})

    def search(cats, pruned):
        calls = []

        def fill(name, parent, grandparent, state):
            calls.append(name)
            (position,) = state
            if position < len(cats) and cats[position] == name:
                return ((((name, position),), (position + 1,)),)
            return ((((name, None),), state),) if name in insertable else ()

        masks = [mask(cat) for cat in cats] if pruned else None
        found = derive(grammar, fill, (0,), masks, insertable)
        found = [(str(tree), payloads, end) for tree, payloads, end in found]
        return [item for item in found if item[2][0] == len(cats)], len(calls)

    for cats in (
        ("pronoun", "verb", "noun"),
        ("noun", "verb", "pronoun"),
        ("conjunction", "pronoun", "verb"),
        ("verb", "noun", "noun"),
        ("verb",),
    ):
        pruned, pruned_calls = search(cats, True)
        full, full_calls = search(cats, False)
        assert pruned == full, cats
        assert pruned_calls < full_calls, cats
    assert search(("pronoun", "verb", "noun"), True)[0][0] == (
        "S(NP(pronoun) verb NP(determiner noun))",
        (("pronoun", 0), ("verb", 1), ("determiner", None), ("noun", 2)),
        (3,),
    )


def test_derive_checks_cover_before_any_search_setup(monkeypatch):
    """A rejected input costs no fill call and no search; none ends short."""
    grammar = parse_grammar(LOOKAHEAD_GRAMMAR).replaced(depth_limit=3)
    insertable = frozenset({"determiner", "conjunction"})
    calls = []
    searches = []

    class CountedDerivation(grammar_module._Derivation):
        def __init__(self, *args):
            searches.append(args)
            super().__init__(*args)

    def fill(name, parent, grandparent, state):
        calls.append(name)
        (position,) = state
        if position < len(cats) and cats[position] == name:
            return (((), (position + 1,)),)
        return (((), state),) if name in insertable else ()

    monkeypatch.setattr(grammar_module, "_Derivation", CountedDerivation)
    cats = ("verb", "noun", "noun")
    masks = [mask(cat) for cat in cats]
    assert not covers(grammar, masks, insertable)
    assert list(derive(grammar, fill, (0,), masks, insertable)) == []
    assert (calls, searches) == ([], [])
    # The unpruned search ends short of the last token; the bounded one
    # yields only the derivations that consume all three.
    cats = ("pronoun", "verb", "noun")
    masks = [mask(cat) for cat in cats]
    full = {end for _tree, _payloads, end in derive(grammar, fill, (0,), None, insertable)}
    assert {(2,), (3,)} <= full
    bounded = [end for _tree, _payloads, end in derive(grammar, fill, (0,), masks, insertable)]
    assert bounded and set(bounded) == {(3,)}
    assert len(searches) == 2


def test_masked_derive_checks_cover_from_its_start(grammar):
    """From a start above 0, the masked search yields the unmasked derivations that end last."""
    insertable = frozenset({"determiner", "conjunction", "preposition"})

    def search(cats, start, masks):
        def fill(name, parent, grandparent, state):
            (position,) = state
            if position < len(cats) and cats[position] == name:
                return ((((name, position),), (position + 1,)),)
            return ((((name, None),), state),) if name in insertable else ()

        found = derive(grammar, fill, (start,), masks, insertable)
        return [(str(tree), payloads, end) for tree, payloads, end in found]

    answered = 0
    for cats, start in (
        (("adverb", "verb"), 1),
        (("adverb", "noun", "verb", "noun"), 1),
        (("verb", "adverb", "noun", "verb", "adjective"), 2),
        (("adjective", "adverb", "pronoun", "verb", "preposition", "noun"), 2),
        (("verb", "verb"), 2),
    ):
        masks = [mask(cat) for cat in cats]
        full = [item for item in search(cats, start, None) if item[2] == (len(cats),)]
        assert search(cats, start, masks) == full, (cats, start)
        answered += bool(full)
    assert answered >= 3


LEFT_RECURSIVE_GRAMMAR = """
S -> NP PRED
S -> PRED
NP -> determiner noun
NP -> noun
PRED -> verb
PRED -> PRED adverb
PRED -> PRED NP
"""


def test_covers_agrees_with_match_leaf_sequence_on_left_recursion():
    """``covers`` accepts exactly the leaf sequences the grammar derives.

    The expected verdicts come from the unpruned enumeration, since
    ``match_leaf_sequence`` runs ``covers`` itself.
    """
    # Deep enough that the depth limit cuts no sequence of up to 4 leaves.
    grammar = parse_grammar(LEFT_RECURSIVE_GRAMMAR).replaced(depth_limit=4)
    sequences = {tree.leaf_sequence() for tree in enumerate_trees(grammar)}
    fits = 0
    for length in range(1, 5):
        for cats in itertools.product(("determiner", "noun", "verb", "adverb"), repeat=length):
            expected = cats in sequences
            assert covers(grammar, [mask(cat) for cat in cats], frozenset()) is expected, cats
            fits += expected
    assert fits == 31
    # An insertable terminal lets PRED reach itself with no token.
    assert covers(grammar, [mask("verb")], frozenset({"adverb"}))
    assert not covers(grammar, [mask("noun")], frozenset({"adverb"}))
    # A token may read as several categories.
    assert covers(grammar, [mask("noun", "verb"), mask("noun")], frozenset())


def test_covers_agrees_with_reference_covers():
    """The FIRST filter on start positions changes no verdict.

    The left-recursive grammar exercises the fixpoint passes and the
    lookahead grammar a nonterminal that derives no token (LINK, unfiltered)
    and one with no derivation at all (LOOP).
    """
    cases = (
        (LEFT_RECURSIVE_GRAMMAR, ("determiner", "noun", "verb", "adverb"),
         (frozenset(), frozenset({"adverb"}), frozenset({"determiner", "adverb"}))),
        (LOOKAHEAD_GRAMMAR, ("determiner", "noun", "verb", "pronoun", "conjunction"),
         (frozenset(), frozenset({"determiner", "conjunction"}))),
    )
    checked = 0
    for text, categories, insertables in cases:
        grammar = parse_grammar(text).replaced(depth_limit=4)
        for length in range(1, 5):
            for cats in itertools.product(categories, repeat=length):
                masks = [mask(cat) for cat in cats]
                for insertable in insertables:
                    expected = reference_covers(grammar, masks, insertable)
                    assert covers(grammar, masks, insertable) is expected, (cats, insertable)
                    checked += 1
    assert checked == 340 * 3 + 780 * 2


def test_covers_relaxes_the_search_like_suffix_bounds(grammar):
    too_deep = ("noun", "verb", "noun") + ("preposition", "noun") * 3
    assert match_leaf_sequence(grammar, too_deep) == []
    assert covers(grammar, [mask(cat) for cat in too_deep], frozenset())  # no depth limit
    insertable = frozenset({"determiner", "conjunction", "preposition"})
    nouns = [mask("noun"), mask("verb"), mask("noun"), mask("noun")]
    assert covers(grammar, nouns, insertable)  # noun verb noun (preposition) noun
    assert not covers(grammar, nouns, frozenset())
    assert not covers(grammar, [mask("noun"), mask("noun")], insertable)  # no verb
    assert grammar.table(insertable) is grammar.table(insertable)


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


def test_masked_derive_needs_a_start(grammar):
    """A masked search reads its token position from the state, so it needs one."""
    calls = []

    def fill(name, parent, grandparent, state):
        calls.append(name)
        return ()

    with pytest.raises(ValueError, match=r"start.*state\[0\]"):
        derive(grammar, fill, None, [TERMINAL_BITS["verb"]])
    assert calls == []


# Heads whose rules share body prefixes: A's rules that start with noun are
# not next to each other, one is a prefix of others, and one is repeated.
PREFIX_GRAMMAR = """
S -> A B
S -> A
A -> noun verb
A -> adverb
A -> noun adjective
A -> noun
A -> noun verb adjective
A -> noun verb
B -> verb
B -> verb noun
B -> adverb B
"""
PREFIX_INPUTS = (
    ("noun", "verb"),
    ("noun", "verb", "verb"),
    ("noun", "verb", "adjective", "verb", "noun"),
    ("noun", "adjective", "adverb", "verb"),
    ("adverb", "adverb", "verb", "noun"),
    ("noun",),
)
BUNDLED_RULES = parse_grammar(
    pathlib.Path(bundled("spanish.grammar")).read_text(encoding="utf-8")
).rules
# Category sequences that the bundled rules derive, in part with inserted
# determiners and prepositions.
BUNDLED_INPUTS = (
    ("noun", "verb", "noun"),
    ("determiner", "noun", "verb", "preposition", "noun"),
    ("noun", "conjunction", "noun", "verb", "adjective"),
    ("pronoun", "verb", "verb", "noun", "adjective"),
    ("verb", "adverb", "preposition", "noun"),
    ("proper_name", "verb", "preposition", "verb", "noun"),
)
PREFIX_INSERTABLE = frozenset({"determiner", "preposition"})


def test_prefix_tree_shares_a_prefix_and_bounds_it_by_every_rule_through_it():
    """A branch's bound is the least need and the union of FIRST over its rules."""
    table = parse_grammar(PREFIX_GRAMMAR).table(frozenset({"noun"}))
    adjective = ("adjective", None, 1, mask("adjective"))
    assert table.prefixes["A"] == (
        ("noun", None, 0, mask("noun", "verb", "adjective"), (3,), (
            ("verb", None, 1, mask("verb"), (0, 5), (adjective + ((4,), ()),)),
            adjective + ((2,), ()),
        )),
        ("adverb", None, 1, mask("adverb"), (1,), ()),
    )


def _prefix_walk_checked(grammar, cats, insertable):
    """Assert that ``derive`` gives ``reference_derive``'s list, with and without masks.

    Every terminal can consume the next category when it is that category,
    and an ``insertable`` one can also take none. Returns the number of
    derivations and of those that consume every category.
    """

    def fill(name, parent, grandparent, state):
        (position,) = state
        choices = []
        if position < len(cats) and cats[position] == name:
            choices.append((((name, position),), (position + 1,)))
        if name in insertable:
            choices.append((((name, None),), state))
        return choices

    reference = reference_derive(grammar, fill, (0,))
    assert list(derive(grammar, fill, (0,))) == reference, cats
    masks = [TERMINAL_BITS[cat] for cat in cats]
    ended = [item for item in reference if item[2][0] == len(cats)]
    assert list(derive(grammar, fill, (0,), masks, insertable)) == ended, cats
    return len(reference), len(ended)


def _rule_set(name):
    if name == "bundled":
        return BUNDLED_RULES, BUNDLED_INPUTS
    return parse_grammar(PREFIX_GRAMMAR).rules, PREFIX_INPUTS


@pytest.mark.parametrize("name", ["bundled", "prefixes"])
def test_prefix_walk_agrees_with_reference_in_file_order_and_reversed(name):
    rules, inputs = _rule_set(name)
    for ordered in (rules, rules[:1] + rules[:0:-1]):
        grammar = Grammar(rules=ordered)
        for insertable in (frozenset(), PREFIX_INSERTABLE):
            counts = [_prefix_walk_checked(grammar, cats, insertable) for cats in inputs]
            assert all(ended for _reference, ended in counts), (name, insertable, counts)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_prefix_walk_agrees_with_reference_under_any_rule_order(data):
    """Permuted subsets of a rule set search as ``reference_derive`` says.

    The start rule ``TOP -> S`` stays first, so every head of the drawn
    rules, ``S`` included, is searched through its prefix tree. Each head
    keeps at least one rule, its first in the drawn order.
    """
    rules, inputs = _rule_set(data.draw(st.sampled_from(["bundled", "prefixes"])))
    order = data.draw(st.permutations(rules))
    dropped = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    kept, heads = [], set()
    for rule, drop in zip(order, dropped):
        if rule.head not in heads or not drop:
            kept.append(rule)
            heads.add(rule.head)
    grammar = Grammar(rules=(GrammarRule("TOP", ("S",), 0),) + tuple(kept))
    cats = data.draw(
        st.sampled_from(inputs) | st.lists(st.sampled_from(sorted(TERMINAL_BITS)), max_size=5)
    )
    insertable = data.draw(st.sampled_from([frozenset(), PREFIX_INSERTABLE]))
    _prefix_walk_checked(grammar, tuple(cats), insertable)


def test_prefix_walk_check_catches_derivations_joined_in_tree_order(monkeypatch):
    """A walk that joins each head's derivations in prefix-tree order fails the check."""
    walk = grammar_module._Derivation.walk

    def tree_order(self, *args):
        buckets = args[-1]
        walk(self, *args[:-1], [buckets[0]] * len(buckets))

    monkeypatch.setattr(grammar_module._Derivation, "walk", tree_order)
    grammar = parse_grammar(PREFIX_GRAMMAR)
    with pytest.raises(AssertionError):
        _prefix_walk_checked(grammar, ("noun", "verb", "verb"), frozenset())
