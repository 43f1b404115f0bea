"""Print deterministic counts of the work the grammar search does.

Usage::

    PYTHONPATH=src python tests/work_counts.py

Generates, with no cap, each of the 20 hand-written corpus lists
(``make_golden.HAND_WRITTEN``) and each golden input once, and prints one
``name corpus golden`` line per counter:

- ``fill_calls``: calls of the planner's terminal fill;
- ``terminal_expansions`` and ``nonterminal_expansions``: body symbols the
  search expands, memo hits included;
- ``memo_derivations``: derivations in the nonterminal lists the search
  memoizes, and ``memo_derivations_in_plans`` how many of them are a
  subtree of some plan;
- ``root_derivations``: derivations of the start symbol, as ``derive``
  yields them to the planner;
- ``cover_ends``: calls of ``_Cover.ends`` with no goal, the ``covers``
  chart's one step per (compiled symbol, start position set) read for its
  full set of ends, memo hits included;
- ``cover_goals``: calls of ``_Cover.ends`` with a goal, the steps of the
  goal walk down each rule's last symbol, which stop at the first rule
  that reaches the last token, memo hits included (0 for a checkout
  without it);
- ``plans``: the plans ``plan_structures`` returns.

The search and ``covers`` read one prefix tree per compiled symbol, a
nonterminal with the usage counts of its path, its live rules
left-factored, so a body prefix that several rules share counts once; the
start symbol's tree is one chain per rule. The counts wrap only
``_Derivation.expand``, ``_Cover.ends``, ``planner.derive``,
``planner._fill_terminal`` and ``pipeline.plan_structures``, so the script
also counts an older checkout: put that checkout's ``src`` on
``PYTHONPATH`` instead.
"""

import sys
from unittest import mock

from make_golden import HAND_WRITTEN, golden_inputs

from fraseo import pipeline, planner
from fraseo.grammar import _Cover, _Derivation
from fraseo.pipeline import generate, load_default_resources

COUNTERS = (
    "fill_calls",
    "terminal_expansions",
    "nonterminal_expansions",
    "memo_derivations",
    "memo_derivations_in_plans",
    "root_derivations",
    "cover_ends",
    "cover_goals",
    "plans",
)


def _subtrees(node, found):
    found.add(id(node))
    for child in node.children:
        _subtrees(child, found)


def count_work(inputs, resources):
    """The ``COUNTERS`` of generating each keyword list of ``inputs`` once, as a dict."""
    counts = dict.fromkeys(COUNTERS, 0)
    memo_lists = {}  # id -> the list, kept alive so that no id is reused within a call
    fill, derive, plan = planner._fill_terminal, planner.derive, pipeline.plan_structures
    expand, ends = _Derivation.expand, _Cover.ends

    def counting_fill(*args):
        counts["fill_calls"] += 1
        return fill(*args)

    def counting_expand(self, name, symbol, *args):
        found = expand(self, name, symbol, *args)
        if symbol is None:
            counts["terminal_expansions"] += 1
        else:
            counts["nonterminal_expansions"] += 1
            if isinstance(found, list):
                memo_lists[id(found)] = found
        return found

    def counting_derive(*args):
        for item in derive(*args):
            counts["root_derivations"] += 1
            yield item

    def counting_ends(self, symbol, starts, *goal):
        counts["cover_goals" if any(goal) else "cover_ends"] += 1
        return ends(self, symbol, starts, *goal)

    def counting_plan(*args):
        plans = plan(*args)
        counts["plans"] += len(plans)
        nodes = set()
        for found in plans:
            _subtrees(found.tree, nodes)
        for derived in memo_lists.values():
            # By index: a memo entry's node comes first, whatever else the entry holds.
            counts["memo_derivations_in_plans"] += sum(id(item[0]) in nodes for item in derived)
        return plans

    with mock.patch.object(planner, "_fill_terminal", counting_fill), mock.patch.object(
        planner, "derive", counting_derive
    ), mock.patch.object(_Derivation, "expand", counting_expand), mock.patch.object(
        _Cover, "ends", counting_ends
    ), mock.patch.object(
        pipeline, "plan_structures", counting_plan
    ):
        for words in inputs:
            generate(list(words), resources, max_candidates=0)
            counts["memo_derivations"] += sum(len(derived) for derived in memo_lists.values())
            memo_lists.clear()
    return counts


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
