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
- ``root_derivations``: derivations of the start symbol;
- ``plans``: the plans ``plan_structures`` returns.

The counts wrap only ``_Derivation.expand``, ``_Derivation.derivations``,
``planner._fill_terminal`` and ``pipeline.plan_structures``, so the script
also counts an older checkout: put that checkout's ``src`` on
``PYTHONPATH`` instead.
"""

import sys
from unittest import mock

from make_golden import HAND_WRITTEN, golden_inputs

from fraseo import pipeline, planner
from fraseo.grammar import _Derivation
from fraseo.pipeline import generate, load_default_resources

COUNTERS = (
    "fill_calls",
    "terminal_expansions",
    "nonterminal_expansions",
    "memo_derivations",
    "memo_derivations_in_plans",
    "root_derivations",
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
    fill, expand, derivations = planner._fill_terminal, _Derivation.expand, _Derivation.derivations
    plan = pipeline.plan_structures

    def counting_fill(*args):
        counts["fill_calls"] += 1
        return fill(*args)

    def counting_expand(self, name, slot, *args):
        found = expand(self, name, slot, *args)
        if slot is None:
            counts["terminal_expansions"] += 1
        else:
            counts["nonterminal_expansions"] += 1
            if isinstance(found, list):
                memo_lists[id(found)] = found
        return found

    def counting_derivations(self, symbol, parent, state, usage):
        for item in derivations(self, symbol, parent, state, usage):
            counts["root_derivations"] += parent is None
            yield item

    def counting_plan(*args):
        plans = plan(*args)
        counts["plans"] += len(plans)
        nodes = set()
        for found in plans:
            _subtrees(found.tree, nodes)
        for derived in memo_lists.values():
            counts["memo_derivations_in_plans"] += sum(id(node) in nodes for node, _, _ in derived)
        return plans

    with mock.patch.object(planner, "_fill_terminal", counting_fill), mock.patch.object(
        _Derivation, "expand", counting_expand
    ), mock.patch.object(_Derivation, "derivations", counting_derivations), mock.patch.object(
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
