import itertools
import math
import pathlib
import re
from unittest import mock

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from make_golden import golden_inputs, golden_record
from oracles import leaf_payloads, match_leaf_sequence, reference_covers, reference_derive

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

        return list(derive(grammar, counting, state, masks))

    def both(grammar, fill, state=None, masks=None, insertable=frozenset()):
        assert masks is not None and insertable == frozenset()
        pruned = run(grammar, fill, state, masks, "pruned")
        full = run(grammar, fill, state, None, "full")
        assert pruned == [found for found in full if found[1][0] == len(masks)]
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


def test_enumeration_compiles_the_bundled_grammar_into_16_symbols(data_dir):
    """The table compiles a symbol when a search first reads it.

    The bundled grammar's 10 names and 39 rules, with the 5 body references
    that would pass the depth limit dead, make 16 compiled symbols. A
    symbol counts only the names it can reach, so ``SNS`` under ``S``,
    ``SNC`` and ``OBJS`` is one symbol; counting every name on the path
    made 31. Only ``SN`` and ``SP`` reach themselves, and theirs are the
    only counts that vary.
    """
    grammar = parse_grammar((data_dir / "spanish.grammar").read_text(encoding="utf-8"))
    table = grammar.table(frozenset())
    assert (len(grammar.rules_for), len(grammar.rules), len(table)) == (10, 39, 0)
    assert sum(1 for _ in enumerate_trees(grammar)) == 66779
    assert len(table) == 16
    assert all(count <= grammar.depth_limit for _name, usage in table for count in usage)
    names = list(grammar.rules_for)
    assert {name for name, _usage in table} == set(names)
    assert sorted(usage for name, usage in table if name == "SN") == [
        tuple({"SN": sn, "SP": sp}.get(other, 0) for other in names)
        for sn, sp in ((1, 0), (1, 1), (2, 1), (2, 2))
    ]


# Every phrase name rewrites to every phrase name before a noun, or to a
# noun: each name reaches each other one, so the compiled symbols are many.
DENSE_NAMES = ("SN", "SNS", "SNC", "SADJ", "SADV", "OBJ")
DENSE_GRAMMAR = "S -> PRED\nPRED -> verb SN\n" + "".join(
    "%s -> %s noun\n" % (head, body) for head in DENSE_NAMES for body in DENSE_NAMES
) + "".join("%s -> noun\n" % head for head in DENSE_NAMES)


def test_a_dense_grammar_compiles_no_more_symbols_than_the_search_keys(monkeypatch):
    """``derive`` compiles at most one symbol more than it makes nonterminal memo keys.

    The input is a verb and three nouns, and the count includes the symbols
    that ``derive``'s ``covers`` check compiles. The one more is the start
    symbol, whose derivations are streamed, never memoized. The memo keys
    and derivations are deterministic work counters: the fill reads no
    context, so each symbol is memoized once per state whatever its parent.
    """
    grammar = parse_grammar(DENSE_GRAMMAR)
    cats = ("verb", "noun", "noun", "noun")
    searches = []

    class RecordedSearch(grammar_module.Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    def fill(name, parent, grandparent, state):
        (position,) = state
        return ((None, (position + 1,)),) if position < len(cats) and cats[position] == name else ()

    monkeypatch.setattr(grammar_module, "Search", RecordedSearch)
    masks = [mask(cat) for cat in cats]
    found = list(derive(grammar, fill, (0,), masks, frozenset(), frozenset()))
    (search,) = searches
    nonterminal = [derived for key, derived in search.memo.items() if len(key) == 3]
    assert len(found) == 35
    assert (len(nonterminal), sum(map(len, nonterminal))) == (1865, 31512)
    assert 0 < len(grammar.table(frozenset())) <= len(nonterminal) + 1


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


def _chain_cells(branch):
    """The cells ``(name, child, need, first, rest_need, rest_first)`` of one rule's chain.

    A chain holds one branch per body symbol, and only its last ends a rule.
    """
    cells = [branch[:6]]
    while branch[7]:
        assert branch[6] == ()
        (branch,) = branch[7]
        cells.append(branch[:6])
    assert len(branch[6]) == 1
    return tuple(cells)


def _rule_cells(grammar, insertable, head):
    """Per rule of ``head``, in file order, the cells of its body.

    Read from a copy of ``grammar`` whose first rules are ``head``'s: the
    start symbol's tree is one chain per rule, so its branches hold each
    rule's own suffix bounds, which no rule order changes.
    """
    rules = tuple(sorted(grammar.rules, key=lambda rule: rule.head != head))
    table = Grammar(rules=rules).table(insertable)
    return [_chain_cells(chain) for chain in table[table.start]]


def test_suffix_bounds_min_tokens_and_first_sets():
    grammar = parse_grammar(LOOKAHEAD_GRAMMAR)
    insertable = frozenset({"determiner", "conjunction"})
    table = grammar.table(insertable)
    bounds = {
        tuple(cell[0] for cell in cells): tuple(cell[4:] for cell in cells)
        for head in grammar.rules_for
        for cells in _rule_cells(grammar, insertable, head)
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
    # Each cell also holds the symbol's own bound and its compiled child
    # (None for a terminal): the name with the usage counts of its path, in
    # the order S, NP, LINK, LOOP, of the names it can reach. Only LINK and
    # LOOP reach themselves, so S and NP count nothing. LINK derives no
    # token, so it has FIRST but needs 0. The start symbol's branches are
    # one chain per rule, in file order.
    assert table.start == ("S", (0, 0, 0, 0))
    assert _chain_cells(table[table.start][1]) == (
        ("LINK", ("LINK", (0, 0, 1, 0)), 0, mask("conjunction"),
         2, NOMINAL_FIRST | mask("conjunction")),
        ("NP", ("NP", (0, 0, 0, 0)), 1, NOMINAL_FIRST, 2, NOMINAL_FIRST),
        ("verb", None, 1, mask("verb"), 1, mask("verb")),
    )
    # Below the start symbol, NP's two determiner rules share one branch.
    assert table[("NP", (0, 0, 0, 0))][0][4:6] == (1, mask("determiner", "noun", "adjective"))
    # FIRST masks beyond a single terminal bit, with their bits; LINK and
    # LOOP each start with one terminal.
    nominal_bits = sorted(mask(cat) for cat in ("determiner", "noun", "adjective", "pronoun"))
    assert table.unions == ((NOMINAL_FIRST, tuple(nominal_bits)),)
    # Built once per insertable set; without insertables every terminal
    # consumes a token and FIRST stops at the first symbol.
    assert grammar.table(insertable) is table
    plain = grammar.table(frozenset())
    assert plain[plain.start][1][4:6] == (3, mask("conjunction"))
    assert plain[plain.start][0][4:6] == (3, mask("determiner", "pronoun"))


def test_lookahead_cuts_work_not_derivations():
    grammar = parse_grammar(LOOKAHEAD_GRAMMAR).replaced(depth_limit=3)
    insertable = frozenset({"determiner", "conjunction"})

    def search(cats, pruned):
        calls = []

        def fill(name, parent, grandparent, state):
            calls.append(name)
            (position,) = state
            if position < len(cats) and cats[position] == name:
                return (((name, position), (position + 1,)),)
            return (((name, None), state),) if name in insertable else ()

        masks = [mask(cat) for cat in cats] if pruned else None
        found = derive(grammar, fill, (0,), masks, insertable)
        found = [(str(tree), leaf_payloads(tree), end) for tree, end in found]
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


def test_derive_checks_cover_before_any_search_walk(monkeypatch):
    """A rejected input costs no fill call and starts no walk; none ends short."""
    grammar = parse_grammar(LOOKAHEAD_GRAMMAR).replaced(depth_limit=3)
    insertable = frozenset({"determiner", "conjunction"})
    calls = []
    searches = []

    stream = grammar_module.Search.stream

    def counted_stream(self, branches, head, state, children):
        if not children:  # the root's walk, not a step of it
            searches.append(state)
        return stream(self, branches, head, state, children)

    def fill(name, parent, grandparent, state):
        calls.append(name)
        (position,) = state
        if position < len(cats) and cats[position] == name:
            return ((None, (position + 1,)),)
        return ((None, state),) if name in insertable else ()

    monkeypatch.setattr(grammar_module.Search, "stream", counted_stream)
    cats = ("verb", "noun", "noun")
    masks = [mask(cat) for cat in cats]
    assert not covers(grammar, masks, insertable)
    assert list(derive(grammar, fill, (0,), masks, insertable)) == []
    assert (calls, searches) == ([], [])
    # The unpruned search ends short of the last token; the bounded one
    # yields only the derivations that consume all three.
    cats = ("pronoun", "verb", "noun")
    masks = [mask(cat) for cat in cats]
    full = {end for _tree, end in derive(grammar, fill, (0,), None, insertable)}
    assert {(2,), (3,)} <= full
    bounded = [end for _tree, end in derive(grammar, fill, (0,), masks, insertable)]
    assert bounded and set(bounded) == {(3,)}
    assert len(searches) == 2


def test_masked_derive_checks_cover_from_its_start(grammar):
    """From a start above 0, the masked search yields the unmasked derivations that end last."""
    insertable = frozenset({"determiner", "conjunction", "preposition"})

    def search(cats, start, masks):
        def fill(name, parent, grandparent, state):
            (position,) = state
            if position < len(cats) and cats[position] == name:
                return (((name, position), (position + 1,)),)
            return (((name, None), state),) if name in insertable else ()

        found = derive(grammar, fill, (start,), masks, insertable)
        return [(str(tree), leaf_payloads(tree), end) for tree, end in found]

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
    """``covers`` is true exactly when ``match_leaf_sequence`` finds a tree.

    ``derive`` asks ``covers`` before it searches, so the trees are matched
    with ``covers`` replaced by a check that accepts every input. At the
    default limit the depth cuts some sequences of up to 4 leaves; at 4 it
    cuts none.
    """
    fits = {}
    for depth_limit in (2, 4):
        grammar = parse_grammar(LEFT_RECURSIVE_GRAMMAR).replaced(depth_limit=depth_limit)
        fits[depth_limit] = 0
        for length in range(1, 5):
            for cats in itertools.product(("determiner", "noun", "verb", "adverb"), repeat=length):
                with mock.patch.object(grammar_module, "covers", lambda *args: True):
                    matched = bool(match_leaf_sequence(grammar, cats))
                assert covers(grammar, [mask(cat) for cat in cats], frozenset()) is matched, cats
                fits[depth_limit] += matched
    assert fits == {2: 11, 4: 31}
    # An insertable terminal lets PRED reach itself with no token.
    assert covers(grammar, [mask("verb")], frozenset({"adverb"}))
    assert not covers(grammar, [mask("noun")], frozenset({"adverb"}))
    # A token may read as several categories.
    assert covers(grammar, [mask("noun", "verb"), mask("noun")], frozenset())


# Mutual left recursion: ``A`` re-enters through ``B`` while ``B`` is
# still being computed, from a start set that ``B``'s FIRST filter narrows.
MUTUAL_LEFT_RECURSIVE_GRAMMAR = """
S -> A
S -> NP A
NP -> determiner noun
NP -> noun
A -> B adverb
A -> verb
B -> A NP
B -> A
B -> determiner A
"""
MUTUAL_COVER_CASE = (
    MUTUAL_LEFT_RECURSIVE_GRAMMAR,
    ("determiner", "noun", "verb", "adverb"),
    (frozenset(), frozenset({"determiner"}), frozenset({"determiner", "adverb"})),
)
# Left recursion through a nonterminal whose start sets shift with the ends
# found: on ``adverb noun adverb noun``, a chart that iterates passes to a
# fixpoint, seeding each from the one before only, loses ``S``'s ends and
# never ends.
SHIFTING_PAIRS_GRAMMAR = """
S -> S A
S -> adverb
A -> B adverb
A -> noun
B -> A
"""


def _covers_checked(text, categories, insertables):
    """Assert that ``covers`` gives ``reference_covers``'s verdict on every short input.

    Every sequence of one to four ``categories`` is checked with each of
    ``insertables``, at depth limit 4; returns the number of verdicts
    checked.
    """
    grammar = parse_grammar(text).replaced(depth_limit=4)
    checked = 0
    for length in range(1, 5):
        for cats in itertools.product(categories, repeat=length):
            masks = [mask(cat) for cat in cats]
            for insertable in insertables:
                expected = reference_covers(grammar, masks, insertable)
                assert covers(grammar, masks, insertable) is expected, (cats, insertable)
                checked += 1
    return checked


def test_covers_agrees_with_reference_covers():
    """``covers`` is exact under the depth limit, whatever its FIRST filter and prefix-tree walk.

    The left-recursive grammars recurse directly, mutually (one nonterminal
    re-entering through another), and with start sets that shift with the
    ends found; the compiled symbols bound each. The lookahead grammar has a
    nonterminal that derives no token (LINK, unfiltered) and one with no
    derivation at all (LOOP), and the prefix grammar rules that end where
    others go on.
    """
    categories = ("determiner", "noun", "verb", "adverb")
    cases = (
        (LEFT_RECURSIVE_GRAMMAR, categories,
         (frozenset(), frozenset({"adverb"}), frozenset({"determiner", "adverb"}))),
        MUTUAL_COVER_CASE,
        (SHIFTING_PAIRS_GRAMMAR, categories, (frozenset(), frozenset({"adverb"}))),
        (LOOKAHEAD_GRAMMAR, ("determiner", "noun", "verb", "pronoun", "conjunction"),
         (frozenset(), frozenset({"determiner", "conjunction"}))),
        PREFIX_COVER_CASE,
    )
    checked = sum(_covers_checked(*case) for case in cases)
    assert checked == 340 * 3 + 340 * 3 + 340 * 2 + 780 * 2 + 340 * 2


def test_covers_chart_is_acyclic_under_left_recursion(monkeypatch):
    """Under left recursion no ``covers`` pair is read while it is being computed.

    Each step down the compiled symbols raises a usage count, so the chart
    is a DAG, one pass over it ends, and its verdicts equal the reference.
    """
    ends = grammar_module._Cover.ends
    active = set()
    steps = [0]

    def acyclic_ends(self, symbol, starts, goal=0):
        key = (symbol, starts)
        assert key not in active, "a covers pair is read while it is being computed"
        active.add(key)
        steps[0] += 1
        try:
            return ends(self, symbol, starts, goal)
        finally:
            active.discard(key)

    monkeypatch.setattr(grammar_module._Cover, "ends", acyclic_ends)
    categories = ("determiner", "noun", "verb", "adverb")
    for text in (LEFT_RECURSIVE_GRAMMAR, SHIFTING_PAIRS_GRAMMAR):
        assert _covers_checked(text, categories, (frozenset(), frozenset({"adverb"}))) == 680
    assert steps[0] > 0


def test_covers_check_catches_a_walk_that_stops_where_a_rule_ends(monkeypatch):
    """A ``covers`` walk that skips the children of a branch where a rule ends fails the check."""
    reach = grammar_module._Cover.reach

    def stop_at_ends(self, branches, reached, goal):
        return reach(self, tuple(b[:7] + ((),) if b[6] else b for b in branches), reached, goal)

    monkeypatch.setattr(grammar_module._Cover, "reach", stop_at_ends)
    with pytest.raises(AssertionError):
        _covers_checked(*PREFIX_COVER_CASE)


def test_covers_check_catches_a_chart_that_keeps_only_the_lowest_start(monkeypatch):
    """A chart step that drops every start position of its set but the lowest fails the check."""
    ends = grammar_module._Cover.ends

    def lowest_start(self, symbol, starts, goal=0):
        return ends(self, symbol, starts & -starts, goal)

    monkeypatch.setattr(grammar_module._Cover, "ends", lowest_start)
    with pytest.raises(AssertionError):
        _covers_checked(*MUTUAL_COVER_CASE)


def test_covers_relaxes_the_search_like_suffix_bounds(grammar):
    """``covers`` relaxes only the fill, as the suffix bounds do: it keeps the depth limit."""
    too_deep = ("noun", "verb", "noun") + ("preposition", "noun") * 3
    assert match_leaf_sequence(grammar, too_deep) == []
    assert not covers(grammar, [mask(cat) for cat in too_deep], frozenset())
    deeper = grammar.replaced(depth_limit=grammar.depth_limit + 1)
    assert covers(deeper, [mask(cat) for cat in too_deep], frozenset())
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
    """A masked search reads its token position from the state, so it needs one in the input.

    A start past the end or before the first token is refused before any
    work, even where the start symbol derives no token, so ``covers``
    accepts the empty rest of the input.
    """
    calls = []

    def fill(name, parent, grandparent, state):
        calls.append(name)
        return ((None, state if name == "determiner" else (state[0] + 1,)),)

    with pytest.raises(ValueError, match=r"start.*state\[0\]"):
        derive(grammar, fill, None, [TERMINAL_BITS["verb"]])
    nullable = parse_grammar("S -> determiner\nS -> noun")
    insertable = frozenset({"determiner"})
    masks = [TERMINAL_BITS["noun"]]
    for start in ((2,), (-1,)):
        with pytest.raises(ValueError, match=r"start.*state\[0\].*%s" % re.escape(repr(start))):
            derive(nullable, fill, start, masks, insertable)
    assert calls == []
    # Both ends of the input are starts.
    found = {start: [str(tree) for tree, _end in derive(nullable, fill, start, masks, insertable)]
             for start in ((0,), (1,))}
    assert found == {(0,): ["S(noun)"], (1,): ["S(determiner)"]}


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
# The prefix grammar as a ``_covers_checked`` case.
PREFIX_COVER_CASE = (
    PREFIX_GRAMMAR, ("noun", "verb", "adjective", "adverb"), (frozenset(), frozenset({"noun"}))
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


# Grammars for the goal-walk differential test: (grammar, categories a
# token may read as, insertable sets, inputs that are covered). The
# left-recursive ones run at depth limit 4 and are also checked against
# ``reference_covers``, as in ``_covers_checked``; the reference enumerates
# derivations, too many on the bundled and the dense grammar.
GOAL_WALK_CASES = {
    "bundled": (
        Grammar(rules=BUNDLED_RULES),
        ("determiner", "noun", "adjective", "adverb", "preposition", "pronoun", "proper_name",
         "verb", "conjunction"),
        (frozenset(), frozenset({"determiner", "conjunction", "preposition"})),
        BUNDLED_INPUTS,
    ),
    "left_recursive": (
        parse_grammar(LEFT_RECURSIVE_GRAMMAR).replaced(depth_limit=4),
        ("determiner", "noun", "verb", "adverb"),
        (frozenset(), frozenset({"adverb"}), frozenset({"determiner", "adverb"})),
        (("noun", "verb", "adverb", "noun"), ("verb", "determiner", "noun", "adverb")),
    ),
    "shifting_pairs": (
        parse_grammar(SHIFTING_PAIRS_GRAMMAR).replaced(depth_limit=4),
        ("determiner", "noun", "verb", "adverb"),
        (frozenset(), frozenset({"adverb"})),
        (("adverb", "noun", "adverb", "noun"), ("adverb", "noun", "adverb")),
    ),
    "dense": (
        parse_grammar(DENSE_GRAMMAR),
        ("verb", "noun", "adjective"),
        (frozenset(), frozenset({"noun"})),
        (("verb", "noun"), ("verb", "noun", "noun", "noun")),
    ),
}


def _full_chart_covers(grammar, masks, insertable):
    """``covers`` read off the full chart: every end of the start symbol from position 0."""
    table = grammar.table(insertable)
    return bool(grammar_module._Cover(table, masks).ends(table.start, 1) >> len(masks) & 1)


def _goal_walk_checked(case, masks, insertable):
    """Assert that ``covers`` gives the full chart's verdict, and the reference's where it runs."""
    grammar = GOAL_WALK_CASES[case][0]
    verdict = covers(grammar, masks, insertable)
    assert verdict is _full_chart_covers(grammar, masks, insertable), (case, masks, insertable)
    if case in ("left_recursive", "shifting_pairs"):
        assert verdict is reference_covers(grammar, masks, insertable), (case, masks, insertable)
    return verdict


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_covers_goal_walk_agrees_with_the_full_chart(data):
    case = data.draw(st.sampled_from(sorted(GOAL_WALK_CASES)))
    _grammar, categories, insertables, covered = GOAL_WALK_CASES[case]
    token = st.sets(st.sampled_from(categories), min_size=1, max_size=2).map(
        lambda cats: mask(*cats)
    )
    masks = data.draw(
        st.lists(token, max_size=6)
        | st.sampled_from(covered).map(lambda cats: [mask(cat) for cat in cats])
    )
    _goal_walk_checked(case, masks, data.draw(st.sampled_from(insertables)))


def _goal_walk_examples_checked():
    """``_goal_walk_checked`` on each case's covered inputs, and on each with one token more.

    Returns the verdicts, which hold both answers.
    """
    verdicts = []
    for case, (_grammar, categories, insertables, covered) in GOAL_WALK_CASES.items():
        for cats in covered:
            for extra in ((), (categories[-1],)):
                masks = [mask(cat) for cat in cats + extra]
                verdicts += [_goal_walk_checked(case, masks, ins) for ins in insertables]
    return verdicts


def test_covers_goal_walk_examples_hold_both_verdicts():
    verdicts = _goal_walk_examples_checked()
    assert (verdicts.count(True), len(verdicts)) == (36, 52)


def test_goal_walk_check_catches_a_walk_that_takes_any_end_for_the_goal(monkeypatch):
    """A goal walk that reports the goal on any end of a right-spine symbol fails the check."""
    ends = grammar_module._Cover.ends

    def any_end(self, symbol, starts, goal=0):
        found = ends(self, symbol, starts, goal)
        return found | goal if found else 0

    monkeypatch.setattr(grammar_module._Cover, "ends", any_end)
    with pytest.raises(AssertionError):
        _goal_walk_examples_checked()


def test_goal_walk_check_catches_a_walk_that_stops_where_a_rule_ends(monkeypatch):
    """A goal walk that skips the children of a branch where a rule ends fails the check."""
    reach = grammar_module._Cover.reach

    def stop_at_ends(self, branches, reached, goal):
        if goal:
            branches = tuple(b[:7] + ((),) if b[6] else b for b in branches)
        return reach(self, branches, reached, goal)

    monkeypatch.setattr(grammar_module._Cover, "reach", stop_at_ends)
    with pytest.raises(AssertionError):
        _goal_walk_examples_checked()


def test_covers_chart_stopped_at_the_goal_keeps_only_full_sets():
    """After the goal walk stops, the same chart still gives the full chart's ends.

    The walk stops by raising ``_GoalReached``, so no pair it left is memoized.
    """
    stopped = 0
    for case, (grammar, _categories, insertables, covered) in GOAL_WALK_CASES.items():
        for cats in covered:
            masks = [mask(cat) for cat in cats]
            for insertable in insertables:
                table = grammar.table(insertable)
                cover = grammar_module._Cover(table, masks)
                try:
                    cover.ends(table.start, 1, 1 << len(masks))
                except grammar_module._GoalReached:
                    stopped += 1
                full = grammar_module._Cover(table, masks).ends(table.start, 1)
                assert cover.ends(table.start, 1) == full, (case, cats, insertable)
    assert stopped == 26


def test_covers_compiles_only_what_the_goal_walk_reaches_on_a_dense_grammar():
    """On the dense grammar with three nouns ``covers`` compiles 814 symbols, the full chart 1,866.

    The walk stops at the first ``SN`` rule that reaches the last token, so
    the later rules' symbols are never compiled.
    """
    grammar = parse_grammar(DENSE_GRAMMAR)
    masks = [mask("verb")] + [mask("noun")] * 3
    assert covers(grammar, masks, frozenset())
    assert len(grammar.table(frozenset())) == 814
    assert _full_chart_covers(grammar, masks, frozenset())
    assert len(grammar.table(frozenset())) == 1866


def test_prefix_tree_shares_a_prefix_and_bounds_it_by_every_rule_through_it():
    """A branch's bound is the least need and the union of FIRST over its rules.

    The start symbol's rules share no branch: each is one chain, in file order.
    """
    table = parse_grammar(PREFIX_GRAMMAR).table(frozenset({"noun"}))
    adjective = ("adjective", None, 1, mask("adjective"), 1, mask("adjective"))
    a_symbol, b_symbol = ("A", (0, 0, 0)), ("B", (0, 0, 1))
    assert table[a_symbol] == (
        ("noun", None, 0, mask("noun"), 0, mask("noun", "verb", "adjective"), (3,), (
            ("verb", None, 1, mask("verb"), 1, mask("verb"), (0, 5), (adjective + ((4,), ()),)),
            adjective + ((2,), ()),
        )),
        ("adverb", None, 1, mask("adverb"), 1, mask("adverb"), (1,), ()),
    )
    a_first, b_first = mask("noun", "verb", "adjective", "adverb"), mask("verb", "adverb")
    a = ("A", a_symbol, 0, a_first)
    assert table[table.start] == (
        a + (1, a_first | b_first, (), (("B", b_symbol, 1, b_first, 1, b_first, (0,), ()),)),
        a + (0, a_first, (1,), ()),
    )


def _prefix_walk_checked(grammar, cats, insertable, contextual=None):
    """Assert that ``derive`` gives ``reference_derive``'s list, with and without masks.

    Every terminal can consume the next category when it is that category,
    and an ``insertable`` one can also take none. A terminal in
    ``contextual``, every one when it is None, puts its parent and
    grandparent heads in its payload; ``derive`` runs with that
    declaration and must call any other terminal's fill with None for
    both, while ``reference_derive`` passes every terminal its context.
    Returns the number of derivations and of those that consume every
    category.
    """

    def fill(name, parent, grandparent, state):
        (position,) = state
        context = (parent, grandparent) if contextual is None or name in contextual else ()
        choices = []
        if position < len(cats) and cats[position] == name:
            choices.append(((name, position) + context, (position + 1,)))
        if name in insertable:
            choices.append(((name, None) + context, state))
        return choices

    def declared_fill(name, parent, grandparent, state):
        if contextual is not None and name not in contextual:
            assert (parent, grandparent) == (None, None), name
        return fill(name, parent, grandparent, state)

    reference = reference_derive(grammar, fill, (0,))
    found = derive(grammar, declared_fill, (0,), None, frozenset(), contextual)
    assert list(found) == reference, cats
    masks = [TERMINAL_BITS[cat] for cat in cats]
    ended = [item for item in reference if item[1][0] == len(cats)]
    found = derive(grammar, declared_fill, (0,), masks, insertable, contextual)
    assert list(found) == ended, cats
    return len(reference), len(ended)


# ``P`` stands under two parents, ``N`` and ``V``, at the same state and as
# one compiled symbol, and the fill of its preposition reads which: a
# search that keys ``P`` on no parent reuses one parent's derivations under
# the other.
CONTEXT_GRAMMAR = """
S -> N V
N -> noun
N -> noun P
V -> P verb
V -> verb
P -> preposition M
M -> noun
"""
CONTEXT_INPUTS = (
    ("noun", "preposition", "noun", "verb"),
    ("noun", "preposition", "noun", "preposition", "noun", "verb"),
    ("noun", "verb"),
)
PREPOSITION = frozenset({"preposition"})


def _context_checked(contextual):
    """``_prefix_walk_checked`` on ``CONTEXT_GRAMMAR``'s inputs; the derivations that end."""
    grammar = parse_grammar(CONTEXT_GRAMMAR)
    return [
        _prefix_walk_checked(grammar, cats, insertable, contextual)[1]
        for cats in CONTEXT_INPUTS
        for insertable in (frozenset(), PREPOSITION)
    ]


def test_derive_keys_on_the_parent_only_where_a_declared_terminal_reads_it():
    """With only ``preposition`` declared, ``derive`` still equals ``reference_derive``.

    The noun and verb fills see no context, and only ``P``, whose body holds
    the preposition, keys on its parent.
    """
    assert _context_checked(PREPOSITION) == _context_checked(None) == [2, 2, 1, 1, 1, 1]
    grammar = parse_grammar(CONTEXT_GRAMMAR)
    assert grammar.keyed(PREPOSITION) == {"P"}
    assert grammar.keyed(frozenset(TERMINAL_BITS)) == {"N", "V", "P", "M"}
    assert grammar.keyed(frozenset()) == frozenset()


class _ParentlessMemo(dict):
    """A memo that drops the parent from every key, so that two contexts share an entry."""

    @staticmethod
    def _key(key):
        return key[:1] + (None,) + key[2:]

    def get(self, key):
        return super().get(self._key(key))

    def __setitem__(self, key, value):
        super().__setitem__(self._key(key), value)


def test_context_check_catches_a_memo_that_drops_the_parent(monkeypatch):
    """A memo that keys ``P`` on no parent gives it one parent's preposition under the other."""
    init = grammar_module.Search.__init__

    def parentless(self, *args):
        init(self, *args)
        self.memo = _ParentlessMemo()

    monkeypatch.setattr(grammar_module.Search, "__init__", parentless)
    with pytest.raises(AssertionError):
        _context_checked(PREPOSITION)


def test_prefix_walk_check_catches_a_compile_past_the_depth_limit(monkeypatch):
    """A table compiled with one use past the limit derives trees ``reference_derive`` cuts."""
    compile_table = grammar_module._compile

    def one_past(grammar, insertable):
        return compile_table(grammar.replaced(depth_limit=grammar.depth_limit + 1), insertable)

    grammar = parse_grammar(LEFT_RECURSIVE_GRAMMAR)
    cats = ("verb", "adverb", "adverb")  # PRED three deep: one past the limit
    assert _prefix_walk_checked(grammar, cats, frozenset()) == (2, 0)
    monkeypatch.setattr(grammar_module, "_compile", one_past)
    with pytest.raises(AssertionError):
        _prefix_walk_checked(parse_grammar(LEFT_RECURSIVE_GRAMMAR), cats, frozenset())


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
    keeps at least one rule, its first in the drawn order. The search
    declares a drawn set of terminals contextual, or every one.
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
    contextual = data.draw(st.none() | st.frozensets(st.sampled_from(sorted(TERMINAL_BITS))))
    _prefix_walk_checked(grammar, tuple(cats), insertable, contextual)


def test_prefix_walk_check_catches_derivations_joined_in_tree_order(monkeypatch):
    """A walk that joins each head's derivations in prefix-tree order fails the check."""
    walk = grammar_module.Search.walk

    def tree_order(self, *args):
        buckets = args[-1]
        walk(self, *args[:-1], [buckets[0]] * len(buckets))

    monkeypatch.setattr(grammar_module.Search, "walk", tree_order)
    grammar = parse_grammar(PREFIX_GRAMMAR)
    with pytest.raises(AssertionError):
        _prefix_walk_checked(grammar, ("noun", "verb", "verb"), frozenset())


def _shared(branches):
    """``branches`` left-factored: branches of one symbol merged, as below the start symbol."""
    merged = {}
    for branch in branches:
        old = merged.get(branch[0])
        merged[branch[0]] = branch if old is None else old[:4] + (
            min(old[4], branch[4]), old[5] | branch[5], old[6] + branch[6], old[7] + branch[7]
        )
    return tuple(branch[:7] + (_shared(branch[7]),) for branch in merged.values())


def test_prefix_walk_check_catches_a_root_stream_over_a_shared_tree(monkeypatch):
    """A root stream over the start symbol's rules left-factored, not chained, fails the check.

    ``S -> A B`` and ``S -> A`` then share the branch of ``A``, and the
    stream yields each ``S -> A`` derivation among those of ``S -> A B``.
    """
    stream = grammar_module.Search.stream

    def shared_stream(self, branches, *args):
        return stream(self, _shared(branches), *args)

    monkeypatch.setattr(grammar_module.Search, "stream", shared_stream)
    grammar = parse_grammar(PREFIX_GRAMMAR)
    table = grammar.table(frozenset())
    assert len(table[table.start]) == 2
    with pytest.raises(AssertionError):
        _prefix_walk_checked(grammar, ("noun", "verb", "verb"), frozenset())
