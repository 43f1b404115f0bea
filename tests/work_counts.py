"""Count the work the grammar search does, and read the table that pins it.

Usage::

    PYTHONPATH=src python tests/work_counts.py

Generates, with no cap, each of the 20 hand-written corpus lists
(``make_golden.HAND_WRITTEN``) and each golden input once, and prints one
``name corpus golden`` line per counter. ``tests/fixtures/work_counts.txt``
holds that output byte for byte, and every test that pins the search's work
reads it through ``pinned``. A change that alters the work on purpose
regenerates it with::

    PYTHONPATH=src python tests/work_counts.py > tests/fixtures/work_counts.txt

The counters:

- ``searches``: grammar searches, one per ``plan_structures`` call that
  reaches the search, whose starts share its memo;
- ``fill_calls``: the terminal keys of the searches' memos, which is the
  planner's terminal fill calls, since the search fills each key once;
- ``terminal_expansions`` and ``nonterminal_expansions``: body symbols the
  search expands, memo hits included;
- ``branch_expansions``: those of them expanded below the root, by the
  prefix-tree walks of nonterminals other than the start symbol;
- ``memo_keys``: the nonterminal keys of the searches' memos;
- ``memo_derivations``: derivations in the nonterminal lists the search
  memoizes, and ``memo_derivations_in_plans`` how many of them are a
  subtree of some plan;
- ``root_derivations``: derivations of the start symbol, as the search's
  starts yield them to the planner;
- ``covers_calls``: calls of ``covers``, one per start the planner runs,
  and ``covers_accepts`` how many of them it accepts;
- ``cover_ends``: calls of ``_Cover.ends`` with no goal, the ``covers``
  chart's one step per (compiled symbol, start position set) read for its
  full set of ends, memo hits included;
- ``cover_goals``: calls of ``_Cover.ends`` with a goal, the steps of the
  goal walk down each rule's last symbol, which stop at the first rule
  that reaches the last token, memo hits included;
- ``plans``: the plans ``plan_structures`` returns;
- ``compiled_symbols``: the compiled symbols in the grammar's tables once
  every list has run, the tables built afresh for the input set, so the
  symbols the search and ``covers`` reached over it.

The search and ``covers`` read one prefix tree per compiled symbol, a
nonterminal with the usage counts of its path, its live rules
left-factored, so a body prefix that several rules share counts once; the
start symbol's tree is one chain per rule. Counts read off the searches'
memos cost the run nothing; only those that include memo hits, or that
nothing holds once the run ends, wrap a function: ``Search.expand``,
``Search.walk``, ``Search.run``, ``covers``, ``_Cover.ends`` and
``pipeline.plan_structures``. To count another checkout, put its ``src``
on ``PYTHONPATH`` instead.
"""

import functools
import pathlib
import sys
from unittest import mock

from make_golden import HAND_WRITTEN, golden_inputs

from fraseo import grammar, pipeline
from fraseo.grammar import Search, _Cover
from fraseo.pipeline import generate, load_default_resources

TABLE = pathlib.Path(__file__).parent / "fixtures" / "work_counts.txt"

COUNTERS = (
    "searches",
    "fill_calls",
    "terminal_expansions",
    "nonterminal_expansions",
    "branch_expansions",
    "memo_keys",
    "memo_derivations",
    "memo_derivations_in_plans",
    "root_derivations",
    "covers_calls",
    "covers_accepts",
    "cover_ends",
    "cover_goals",
    "plans",
    "compiled_symbols",
)


def _subtrees(node, found):
    found.add(id(node))
    for child in node.children:
        _subtrees(child, found)


def _memo_lists(searches, fields):
    """The memo lists of ``searches`` whose keys have ``fields`` fields.

    A nonterminal's key has 3 fields and a terminal's 4 (``Search.expand``).
    """
    return [
        found for search in searches for key, found in search.memo.items() if len(key) == fields
    ]


def count_work(inputs, resources):
    """The ``COUNTERS`` of generating each keyword list of ``inputs`` once, as a dict."""
    counts = dict.fromkeys(COUNTERS, 0)
    searches = {}  # id -> the search, kept alive so that no id is reused within a call
    walking = [0]  # the depth of ``Search.walk`` calls
    plan, covers = pipeline.plan_structures, grammar.covers
    run, expand, walk, ends = Search.run, Search.expand, Search.walk, _Cover.ends

    def counting_run(self, state):
        searches[id(self)] = self
        for item in run(self, state):
            counts["root_derivations"] += 1
            yield item

    def counting_expand(self, name, symbol, *args):
        counts["terminal_expansions" if symbol is None else "nonterminal_expansions"] += 1
        counts["branch_expansions"] += walking[0] > 0
        return expand(self, name, symbol, *args)

    def counting_walk(self, *args):
        walking[0] += 1
        try:
            return walk(self, *args)
        finally:
            walking[0] -= 1

    def counting_covers(*args):
        accepted = covers(*args)
        counts["covers_calls"] += 1
        counts["covers_accepts"] += accepted
        return accepted

    def counting_ends(self, symbol, starts, goal=0):
        counts["cover_goals" if goal else "cover_ends"] += 1
        return ends(self, symbol, starts, goal)

    def counting_plan(*args):
        plans = plan(*args)
        counts["plans"] += len(plans)
        nodes = set()
        for found in plans:
            _subtrees(found.tree, nodes)
        for derived in _memo_lists(searches.values(), 3):
            # By index: a memo entry's node comes first, whatever else the entry holds.
            counts["memo_derivations_in_plans"] += sum(id(item[0]) in nodes for item in derived)
        return plans

    with mock.patch.object(Search, "run", counting_run), mock.patch.object(
        Search, "expand", counting_expand
    ), mock.patch.object(Search, "walk", counting_walk), mock.patch.object(
        grammar, "covers", counting_covers
    ), mock.patch.object(
        _Cover, "ends", counting_ends
    ), mock.patch.object(
        pipeline, "plan_structures", counting_plan
    ), mock.patch.object(
        resources.grammar, "_tables", {}
    ):
        for words in inputs:
            generate(list(words), resources, max_candidates=0)
            counts["searches"] += len(searches)
            counts["fill_calls"] += len(_memo_lists(searches.values(), 4))
            nonterminal = _memo_lists(searches.values(), 3)
            counts["memo_keys"] += len(nonterminal)
            counts["memo_derivations"] += sum(len(derived) for derived in nonterminal)
            searches.clear()
        tables = resources.grammar._tables.values()
        counts["compiled_symbols"] = sum(len(compiled) for compiled in tables)
    return counts


@functools.lru_cache(maxsize=None)
def table():
    """The pinned table as {counter: {column: value}}, counters in file order."""
    header, *rows = TABLE.read_text(encoding="utf-8").splitlines()
    columns = header.split()[1:]
    return {
        name: dict(zip(columns, map(int, values)))
        for name, *values in map(str.split, rows)
    }


def pinned(counter, column):
    """The pinned value of ``counter`` over ``column``, "corpus" or "golden".

    Raises KeyError for a counter or a column the table does not have, so
    a renamed counter fails loudly.
    """
    return table()[counter][column]


def main():
    resources = load_default_resources()
    corpus = count_work(HAND_WRITTEN, resources)
    golden = count_work(golden_inputs(resources.lexicon), resources)
    print("%-26s %8s %8s" % ("counter", "corpus", "golden"))
    for name in COUNTERS:
        print("%-26s %8d %8d" % (name, corpus[name], golden[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
