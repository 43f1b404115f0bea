"""The full ranked output must match the committed golden fixture exactly."""

import json

from make_golden import FIXTURE, golden_inputs, golden_record


def test_ranked_output_matches_golden_fixture(resources):
    expected = [
        json.loads(line)
        for line in FIXTURE.read_text(encoding="utf-8").splitlines()
    ]
    inputs = golden_inputs(resources.lexicon)
    assert [record["input"] for record in expected] == [list(words) for words in inputs]
    for words, record in zip(inputs, expected):
        assert golden_record(words, resources) == record, words
