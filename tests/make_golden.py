"""Write the golden ranked-output fixture ``tests/fixtures/golden_plans.jsonl``.

Usage::

    PYTHONPATH=src python tests/make_golden.py [OUT]

One JSON line per keyword list. The inputs are the hand-written corpus,
README and acceptance lists, a fixed seeded sample of 0-7 word lists drawn
from the bundled lexicon, with ``no``, ``?`` and an unknown word mixed in,
and a few lists that reach rules and roles the others miss. A record holds
either the class name of the exception that made the pipeline echo the
input, or the full ranked plan list: deviations, discovery index, rendered
tree, insertions, realized text and trace of every plan, before any
deduplication or cap. ``tests/test_golden.py`` checks the
current code against the committed file; regenerate it only in a change
that alters ranked output on purpose.
"""

import json
import pathlib
import random
import sys

from fraseo.cli import _render_tree
from fraseo.errors import PlanningError
from fraseo.pipeline import load_default_resources
from fraseo.planner import plan_structures, tokenize_and_resolve
from fraseo.realizer import realize

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_plans.jsonl"

HAND_WRITTEN = (
    # exact_match_corpus.tsv
    ("pantalón", "ser", "morado"),
    ("mamá", "cepillar", "perro"),
    ("bebé", "empezar", "caminar"),
    ("querer", "comer", "melón", "limón"),
    ("mamá", "se", "secar", "pelo", "con", "secador"),
    ("abejas", "volar", "alrededor", "de", "flor", "rosa"),
    ("niño", "inflar", "un", "globo", "gigante", "de", "color", "azul"),
    ("libro", "estuche", "estar", "dentro", "de", "mochila"),
    ("niños", "pintar", "un", "lápiz", "azul", "en", "papel", "blanco"),
    # non_svo_corpus.tsv
    ("caer", "sal", "a", "mantel"),
    # README and acceptance examples
    ("dibujar", "animales"),
    ("Ana", "ir", "colegio", "no"),
    ("pájaros", "poder", "volar", "?"),
    ("profesor", "escribir", "letras", "números", "en", "pizarra"),
    ("abejas", "volar", "alrededor", "de", "flor", "amarillo"),
    ("niñas", "tomar", "batido", "chocolate"),
    ("lobo", "comer", "niñas"),
    ("cuidadora", "nosotros", "comer", "manzanas"),
    ("yo", "ir", "siempre", "a", "teatro", "no"),
    ("él", "comer", "con", "yo"),
)

SEED = 2405
SAMPLED_LISTS = 300
MAX_WORDS = 7
UNKNOWN_WORD = "Lucía"
# Lists that reach what neither the hand-written nor the sampled lists do:
# plural nouns inside an SP, where only the SP clause wants a determiner, and
# the rules SN -> noun SADJ SP and PRED -> verb SADJ SP, negative reflexive
# sentences, where `no` goes before the clitic, and the contraction con ti.
# They come last, so adding them moved no earlier record.
BLIND_SPOTS = (
    ("niños", "pintar", "en", "papeles"),
    ("abejas", "volar", "alrededor", "de", "flores"),
    ("niño", "comer", "manzana", "roja", "de", "árbol"),
    ("perro", "estar", "contento", "en", "casa"),
    ("mamá", "se", "secar", "pelo", "no"),
    ("yo", "se", "lavar", "no", "?"),
    ("él", "comer", "con", "ti"),
)


def vocabulary(lexicon):
    """Every lemma and surface form of the lexicon except ``no``, sorted."""
    words = set()
    for entry in lexicon.entries:
        words.add(entry.lemma)
        words.update(form.surface for form in entry.forms)
    words.discard("no")
    return sorted(words)


def sampled_inputs(lexicon):
    rng = random.Random(SEED)
    vocab = vocabulary(lexicon)
    lists = []
    for _ in range(SAMPLED_LISTS):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, MAX_WORDS))]
        for extra in ("no", "?", UNKNOWN_WORD):
            if rng.random() < 0.2:
                words.insert(rng.randint(0, len(words)), extra)
        lists.append(tuple(words))
    return lists


def golden_inputs(lexicon):
    return list(HAND_WRITTEN) + sampled_inputs(lexicon) + list(BLIND_SPOTS)


def golden_record(words, resources):
    """The ranked plan list for ``words``, or the class of its echo error."""
    try:
        tokens = tokenize_and_resolve(words, resources.lexicon)
        plans = plan_structures(
            tokens, resources.grammar, resources.lexicon, resources.lm
        )
    except PlanningError as exc:
        return {"input": list(words), "echo": type(exc).__name__}
    out = []
    for plan in plans:
        sentence = realize(plan, resources.polarity_pairs)
        out.append(
            {
                "deviations": plan.deviations,
                "discovery": plan.discovery_index,
                "tree": _render_tree(plan.tree),
                "insertions": [
                    [position, category.value, rationale]
                    for position, category, rationale in plan.inserted
                ],
                "text": sentence.text,
                "trace": list(sentence.trace),
            }
        )
    return {"input": list(words), "plans": out}


def golden_lines(resources):
    for words in golden_inputs(resources.lexicon):
        record = golden_record(words, resources)
        yield json.dumps(record, ensure_ascii=False, sort_keys=True)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1 or any(arg.startswith("-") for arg in argv):
        print("usage: make_golden.py [OUT]", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0]) if argv else FIXTURE
    resources = load_default_resources()
    text = "".join(line + "\n" for line in golden_lines(resources))
    out.write_text(text, encoding="utf-8")
    print("wrote %d records to %s" % (text.count("\n"), out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
