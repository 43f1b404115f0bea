"""The full ranked output must match the committed golden fixture exactly."""

import json
import os
import pathlib
import subprocess
import sys

from fraseo import planner
from fraseo.errors import PlanningError
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


def test_ranked_output_does_not_depend_on_hashing():
    """Two interpreters with different string hash seeds, and different object
    addresses for the identity-hashed feature enums, render the same texts
    and traces as the fixture."""
    import fraseo

    path = os.pathsep.join(
        [str(pathlib.Path(fraseo.__file__).parent.parent), str(pathlib.Path(__file__).parent)]
    )
    script = (
        "import sys\n"
        "from make_golden import golden_lines\n"
        "from fraseo.pipeline import load_default_resources\n"
        "sys.stdout.buffer.write(''.join(line + '\\n' for line in"
        " golden_lines(load_default_resources())).encode('utf-8'))\n"
    )
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == FIXTURE.read_bytes()


def _rules_used(node, used):
    """Add each (head, body) production of the tree under ``node`` to ``used``."""
    if node.children:
        used.add((node.symbol, tuple(child.symbol for child in node.children)))
        for child in node.children:
            _rules_used(child, used)


def test_golden_inputs_reach_every_rule_and_the_sp_role(resources, monkeypatch):
    """Each bundled rule occurs in some golden plan, and a role walk that never
    marks SP nouns changes at least one golden record."""
    inputs = golden_inputs(resources.lexicon)
    used = set()
    for words in inputs:
        try:
            tokens = planner.tokenize_and_resolve(words, resources.lexicon)
            plans = planner.plan_structures(
                tokens, resources.grammar, resources.lexicon, resources.lm
            )
        except PlanningError:
            continue
        for plan in plans:
            _rules_used(plan.tree, used)
    rules = {(rule.head, rule.body) for rule in resources.grammar.rules}
    assert rules - used == set()

    walk = planner._walk_roles

    def mutant(node, parent, in_subject, in_sp, *rest):
        return walk(node, parent, in_subject, False, *rest)

    monkeypatch.setattr(planner, "_walk_roles", mutant)
    expected = [json.loads(line) for line in FIXTURE.read_text(encoding="utf-8").splitlines()]
    changed = [
        words
        for words, record in zip(inputs, expected)
        if golden_record(words, resources) != record
    ]
    assert changed
