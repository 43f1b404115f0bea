"""List every keyword list whose answer differs between two checkouts.

Usage::

    python tests/answer_diff.py BASE_SRC [HEAD_SRC]

``BASE_SRC`` and ``HEAD_SRC`` are the ``src`` directories of two
checkouts; ``HEAD_SRC`` defaults to this checkout's. The inputs are built
once, with ``HEAD_SRC``'s lexicon: the golden inputs of
``tests/make_golden.py`` and perfbench's seed-1 and seed-3 fuzz lists.
Each side generates every distinct list in one child process, with
``PYTHONPATH`` set to its ``src``, uncapped and at cap 3.

An answer is the ranked candidate texts, or ECHO when the input is echoed.
For each input set and cap it prints how many lists moved, then each list
whose answer moved, as its first differing rank and that candidate's old
and new text. It compares texts only, so a change to trees or traces alone
moves nothing here; ``tests/test_golden.py`` sees those. The report always
exits 0: the golden fixture and the perfbench digests are the gates.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
CAPS = (0, 3)
FUZZ_SEEDS = (1, 3)
ECHO = "ECHO"


def input_sets(head_src):
    """{set name: distinct keyword lists, as tuples, in first-seen order}."""
    sys.path.insert(0, str(head_src))
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from make_golden import golden_inputs
    from workloads import fuzz_lists, load_vocab

    from fraseo.pipeline import load_default_resources

    sets = {"golden": golden_inputs(load_default_resources().lexicon)}
    for seed in FUZZ_SEEDS:
        sets["fuzz seed %d" % seed] = fuzz_lists(seed, load_vocab())
    return {name: list(dict.fromkeys(map(tuple, lists))) for name, lists in sets.items()}


def side_answers(src, sets):
    """{(set name, cap): {words: answer}} from one child process on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, __file__, "--child"],
        input=json.dumps(sets),
        stdout=subprocess.PIPE,
        check=True,
        encoding="utf-8",
        env=env,
    )
    found = json.loads(done.stdout)
    return {
        (name, cap): dict(zip(lists, found[name][str(cap)]))
        for name, lists in sets.items()
        for cap in CAPS
    }


def child():
    """Read {set name: lists} on stdin, write {set name: {cap: [answer]}} on stdout."""
    from fraseo.pipeline import generate, load_default_resources

    resources = load_default_resources()
    found = {}
    for name, lists in json.load(sys.stdin).items():
        found[name] = {}
        for cap in CAPS:
            results = [generate(words, resources, max_candidates=cap) for words in lists]
            found[name][cap] = [None if result.echo else result.texts for result in results]
    json.dump(found, sys.stdout, ensure_ascii=False)
    return 0


def moved(base, head):
    """{key: [(words, rank, old, new)]} for each list whose answer differs.

    ``base`` and ``head`` map each key to {words: answer}, an answer being
    a list of texts or None for an echo. ``rank`` is the 1-based rank of
    the first candidate that differs; a missing candidate reads as None.
    """
    changes = {}
    for key, answers in head.items():
        changes[key] = []
        for words, new in answers.items():
            old = base[key][words]
            if old == new:
                continue
            old, new = [ECHO] if old is None else old, [ECHO] if new is None else new
            rank = 0
            while rank < min(len(old), len(new)) and old[rank] == new[rank]:
                rank += 1
            changes[key].append((words, rank + 1, _at(old, rank), _at(new, rank)))
    return changes


def _at(texts, rank):
    return texts[rank] if rank < len(texts) else None


def report(base, head):
    """The printed lines: a count per (input set, cap), then each moved list."""
    lines = []
    for (name, cap), changes in moved(base, head).items():
        label = "cap %d" % cap if cap else "uncapped"
        total = len(head[name, cap])
        lines.append("%s, %s: %d of %d lists moved" % (name, label, len(changes), total))
        lines += [
            "  %s: #%d %s → %s" % (" ".join(words), rank, old, new)
            for words, rank, old, new in changes
        ]
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--child"]:
        return child()
    if not 1 <= len(argv) <= 2 or any(arg.startswith("-") for arg in argv):
        print("usage: answer_diff.py BASE_SRC [HEAD_SRC]", file=sys.stderr)
        return 2
    base_src, head_src = argv[0], argv[1] if len(argv) > 1 else HERE.parent / "src"
    sets = input_sets(head_src)
    base, head = side_answers(base_src, sets), side_answers(head_src, sets)
    print("\n".join(report(base, head)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
