from make_golden import HAND_WRITTEN, golden_inputs
from test_planner import (
    CORPUS_ROOT_DERIVATIONS,
    GOLDEN_BRANCH_EXPANSIONS,
    GOLDEN_COVER_ENDS,
    GOLDEN_COVER_GOALS,
    GOLDEN_FILL_CALLS,
)
from work_counts import count_work, main

# What ``python tests/work_counts.py`` prints for the bundled resources.
# Deterministic work counters: change them only with a reason.
WORK_COUNTS = """\
counter                      corpus   golden
fill_calls                      238      800
terminal_expansions             353     1087
nonterminal_expansions          261      872
memo_derivations                566     1585
memo_derivations_in_plans       332      963
root_derivations                135      388
cover_ends                       42     1023
cover_goals                     104     1453
plans                           135      388
"""


def test_work_counts_prints_the_pinned_counts(capsys):
    assert main() == 0
    assert capsys.readouterr().out == WORK_COUNTS


def test_work_counts_repeat_and_agree_with_the_planner_pins(resources):
    corpus = count_work(HAND_WRITTEN, resources)
    assert count_work(HAND_WRITTEN, resources) == corpus
    assert corpus["root_derivations"] == corpus["plans"] == CORPUS_ROOT_DERIVATIONS
    golden = count_work(golden_inputs(resources.lexicon), resources)
    assert golden["fill_calls"] == GOLDEN_FILL_CALLS
    assert golden["cover_ends"] == GOLDEN_COVER_ENDS
    assert golden["cover_goals"] == GOLDEN_COVER_GOALS
    # The bundled start rules' bodies hold no terminal, so every terminal
    # expansion is a prefix-tree branch's.
    assert golden["terminal_expansions"] == GOLDEN_BRANCH_EXPANSIONS[1]

