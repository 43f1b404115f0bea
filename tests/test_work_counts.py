import pytest
from make_golden import HAND_WRITTEN
from work_counts import COUNTERS, TABLE, count_work, main, pinned, table

# tests/fixtures/work_counts.txt pins what ``python tests/work_counts.py``
# prints for the bundled resources: deterministic work counters, changed
# only with a reason, by regenerating the file.


def test_work_counts_prints_the_pinned_counts(capsys):
    assert main() == 0
    assert capsys.readouterr().out == TABLE.read_text(encoding="utf-8")


def test_work_counts_repeat_and_agree_with_the_planner_pins(resources):
    """A second count equals the first, and ``pinned`` reads each of its counters."""
    corpus = count_work(HAND_WRITTEN, resources)
    assert count_work(HAND_WRITTEN, resources) == corpus
    assert corpus == {name: pinned(name, "corpus") for name in COUNTERS}


def test_the_table_holds_every_counter_in_order():
    assert tuple(table()) == COUNTERS


def test_pinned_rejects_a_counter_or_column_the_table_lacks():
    with pytest.raises(KeyError):
        pinned("fill_call", "corpus")
    with pytest.raises(KeyError):
        pinned("fill_calls", "fuzz")
