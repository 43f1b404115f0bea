"""The full ranked output must match the committed golden fixture exactly."""

import inspect
import json
import os
import pathlib
import subprocess
import sys

import make_golden
import pytest
from make_golden import FIXTURE, golden_inputs, golden_record

from fraseo import planner, realizer
from fraseo.errors import PlanningError
from fraseo.features import EMPTY_BUNDLE


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
    """Each bundled rule occurs in some golden plan, and a role table without
    the SP context changes at least one golden record."""
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

    monkeypatch.setattr(planner, "_DETERMINED", planner._DETERMINED - {"SP"})
    assert _changed_records(resources)


def _changed_records(resources):
    """The golden inputs whose record the code, as patched now, renders differently."""
    expected = [json.loads(line) for line in FIXTURE.read_text(encoding="utf-8").splitlines()]
    return [
        words
        for words, record in zip(golden_inputs(resources.lexicon), expected)
        if golden_record(words, resources) != record
    ]


NEGATE = realizer._negate
REALIZE = realizer.realize


def _realize_with_source_change(old, new):
    """``realizer.realize`` recompiled in its module with ``old`` replaced by ``new``."""
    source = inspect.getsource(realizer.realize)
    assert source.count(old) == 1, old
    namespace = dict(vars(realizer))
    exec(source.replace(old, new), namespace)
    return namespace["realize"]


def _without_contraction(first, second):
    return {
        head: {tail: fused for tail, fused in tails.items() if (head, tail) != (first, second)}
        for head, tails in realizer.CONTRACTIONS.items()
    }


def _negate_first(words, pairs, position, verb_index, trace):
    return NEGATE(words, pairs, 0, verb_index, trace)


# Each skipped realization step and the subject context dropped from the
# planner's role table, as (module, name, replacement). ``make_golden.realize``
# is the ``realize`` that ``golden_record`` calls. The SP and coordination
# contexts have their own mutant tests, and the golden plans use every
# bundled rule.
MUTANTS = {
    "agreement": (realizer, "_agreement_target", lambda plan, index, target: EMPTY_BUNDLE),
    "reflexive-clitic": (
        make_golden, "realize", lambda plan, pairs: REALIZE(plan.replaced(reflexive=False), pairs)
    ),
    "contraction-a-el": (realizer, "CONTRACTIONS", _without_contraction("a", "el")),
    "contraction-de-el": (realizer, "CONTRACTIONS", _without_contraction("de", "el")),
    "contraction-con-yo": (realizer, "CONTRACTIONS", _without_contraction("con", "yo")),
    "contraction-con-ti": (realizer, "CONTRACTIONS", _without_contraction("con", "ti")),
    "contraction-con-si": (realizer, "CONTRACTIONS", _without_contraction("con", "sí")),
    "polarity-swap": (make_golden, "realize", lambda plan, pairs: REALIZE(plan, {})),
    "no-first": (realizer, "_negate", _negate_first),
    "opening-question-mark": (
        make_golden, "realize", _realize_with_source_change('"¿%s?" % text', '"%s?" % text')
    ),
    "initial-capital": (
        make_golden, "realize", _realize_with_source_change("char.upper()", "char")
    ),
    "subject-role": (planner, "_DETERMINED", planner._DETERMINED - {"S"}),
}

# Mutants no golden input can kill, with the reason.
UNREACHABLE = {
    "contraction-con-si": "the bundled lexicon has no `sí`, so `con sí` fills `sí` as the "
    "proper name Sí, which no contraction matches",
}


def _positional_kinds(function):
    """The kinds of ``function``'s positional parameters, names aside."""
    return [
        parameter.kind
        for parameter in inspect.signature(function).parameters.values()
        if parameter.kind < inspect.Parameter.KEYWORD_ONLY
    ]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_replaces_an_attribute_in_kind(name):
    """A callable replacement takes the positional parameters of what it replaces,
    so it cannot pass by scrambling its arguments; any other replaces an
    attribute that exists."""
    module, attribute, replacement = MUTANTS[name]
    assert hasattr(module, attribute), name
    if callable(replacement):
        original = getattr(module, attribute)
        assert _positional_kinds(replacement) == _positional_kinds(original), name


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_golden_records_kill_each_realization_and_subject_mutant(resources, monkeypatch, name):
    """Each mutant changes at least one golden record, unless listed as unreachable."""
    monkeypatch.setattr(*MUTANTS[name])
    changed = _changed_records(resources)
    if name in UNREACHABLE:
        assert changed == [], "%s is reachable now: drop it from UNREACHABLE" % name
    else:
        assert changed, name
