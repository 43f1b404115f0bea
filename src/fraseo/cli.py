"""Command-line entry point.

Subcommands: ``generate`` (keywords to ranked sentences), ``repl``
(interactive loop), ``build-lexicon`` (two-source merge with oracle
verification), ``train-lm`` (count-based model training), ``evaluate``
(exact-match corpus scoring) and ``agreement`` (annotator reliability).

Exit statuses are stable: 0 success, 1 configuration or parse failure,
2 generation impossible (the input is echoed back), 141 (128 + SIGPIPE,
as a shell reports for ``cat`` or ``grep``) when the reader of standard
output closed it early, with nothing on standard error. The markers ``no``
and ``?`` are ordinary argv tokens; quote ``?`` in shells that glob it.

``build-lexicon``, ``evaluate`` and ``agreement`` import ``builder`` or
``evaluation`` in their own functions, so ``generate`` and ``repl`` start
without loading either.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import lm
from .errors import FraseoError
from .fileio import write_text_atomic
from .lexicon import save_lexicon
from .pipeline import generate, load_resources

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_GENERATION = 2
EXIT_BROKEN_PIPE = 141

FORMAT_PLAIN = "plain"
FORMAT_JSON = "json"


def _canonical_json(payload):
    import json  # here, so plain ``generate`` output never loads it

    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)


def _render_tree(node):
    """Parenthesized plan tree with each leaf's pre-inflection fill surface."""
    if node.is_leaf:
        return "(%s %s)" % (node.symbol, node.payload.surface)
    return "(%s %s)" % (node.symbol, " ".join(map(_render_tree, node.children)))


def _candidate_payload(candidate):
    plan = candidate.plan
    return {
        "text": candidate.text,
        "tree": _render_tree(plan.tree),
        "insertions": [
            {"position": position, "category": category.value, "rationale": rationale}
            for position, category, rationale in plan.inserted
        ],
        "trace": list(candidate.trace),
    }


def _generator(args):
    """``generate`` bound to the resources and candidate cap that ``args`` name."""
    resources = load_resources(
        lexicon_path=args.lexicon, grammar_path=args.grammar, lm_path=args.lm
    )
    return partial(generate, resources=resources, max_candidates=args.max_candidates)


def _print_plain(result):
    """Print the echo text, or one candidate per line."""
    for line in [result.echo_text] if result.echo else result.texts:
        print(line)


def cmd_generate(args):
    result = _generator(args)(args.words)
    if args.format == FORMAT_JSON:
        payload = {
            "input": list(result.input_words),
            "mode": None if result.echo else result.mode.value,
            "candidates": [_candidate_payload(c) for c in result.candidates],
        }
        if result.echo:
            payload["echo"] = result.echo_text
        print(_canonical_json(payload))
    else:
        _print_plain(result)
    return EXIT_NO_GENERATION if result.echo else EXIT_OK


def cmd_repl(args):
    generator = _generator(args)
    while True:
        print("> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            print()
            return EXIT_OK
        words = line.split()
        if not words:
            continue
        if words == ["exit"]:
            return EXIT_OK
        try:
            result = generator(words)
        except FraseoError as exc:
            print("error: %s" % exc)
            continue
        _print_plain(result)


def cmd_build_lexicon(args):
    from . import builder

    oracle = builder.AllowlistOracle.load(args.oracle)
    lexicon, report = builder.build_lexicon(args.primary, args.expansion, oracle)
    save_lexicon(lexicon, args.out)
    if args.report:
        write_text_atomic(args.report, _canonical_json(report.to_flat_dict()) + "\n")
    print("wrote %d entries to %s" % (len(lexicon.entries), args.out))
    return EXIT_OK


def cmd_train_lm(args):
    model = lm.train_file(args.corpus)
    model.save(args.out)
    print(
        "trained model covering %d verbs; skipped %d malformed lines"
        % (len(model.verbs()), model.skipped_lines)
    )
    return EXIT_OK


def cmd_evaluate(args):
    from . import evaluation

    generator = _generator(args)  # a resource error comes before a corpus error
    report = evaluation.exact_match_rate(evaluation.load_corpus(args.corpus), generator)
    print(_canonical_json(report.to_dict()))
    return EXIT_OK


def cmd_agreement(args):
    from . import evaluation

    records = evaluation.load_annotations(args.annotations)
    matrix = evaluation.ReliabilityMatrix.from_annotations(records)
    coincidence = evaluation.coincidence_matrix(matrix)
    payload = {
        "alpha": evaluation.krippendorff_alpha(coincidence),
        "accuracy": evaluation.accuracy(coincidence),
        "degenerate": coincidence.is_degenerate,
    }
    for measure in ("alpha", "accuracy"):
        payload["pairwise_" + measure] = {
            "%s,%s" % pair: value
            for pair, value in evaluation.pairwise_agreement(matrix, measure).items()
        }
    print(_canonical_json(payload))
    return EXIT_OK


def _candidate_cap(text):
    """argparse type of ``--max-candidates``: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return int(text)


class _HelpFormatter(argparse.HelpFormatter):
    """``argparse.HelpFormatter`` that finds the terminal width without ``shutil``.

    The default formatter imports ``shutil`` (and with it ``bz2``, ``lzma``
    and ``fnmatch``) for ``shutil.get_terminal_size``, and argparse builds a
    formatter for every ``add_argument``. The width here is computed the
    same way: ``COLUMNS`` when it is a positive integer, else the width of
    the terminal on ``sys.__stdout__``, else 80, less 2.
    """

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            try:
                width = int(os.environ["COLUMNS"])
            except (KeyError, ValueError):
                width = 0
            if width <= 0:
                try:
                    width = os.get_terminal_size(sys.__stdout__.fileno()).columns
                except (AttributeError, ValueError, OSError):
                    width = 0
                width = width or 80
            width -= 2
        super().__init__(prog, indent_increment, max_help_position, width)


def _add_resource_flags(parser, max_candidates_default):
    parser.add_argument("--lexicon", help="path to a lexicon XML file")
    parser.add_argument("--grammar", help="path to a grammar file")
    parser.add_argument("--lm", help="path to a trained language model file")
    parser.add_argument(
        "--max-candidates",
        type=_candidate_cap,
        default=max_candidates_default,
        help="candidate cap, 0 for unlimited (default %d)" % max_candidates_default,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fraseo",
        description="Keyword-to-sentence generation for Spanish.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=partial(argparse.ArgumentParser, formatter_class=_HelpFormatter),
    )

    p_generate = sub.add_parser("generate", help="realize sentences from keywords")
    _add_resource_flags(p_generate, max_candidates_default=3)
    p_generate.add_argument(
        "--format",
        choices=(FORMAT_PLAIN, FORMAT_JSON),
        default=FORMAT_PLAIN,
        help="output format (default plain)",
    )
    p_generate.add_argument("words", nargs="+", help="keywords, plus optional 'no' and '?'")
    p_generate.set_defaults(func=cmd_generate)

    p_repl = sub.add_parser("repl", help="interactive keyword loop")
    _add_resource_flags(p_repl, max_candidates_default=3)
    p_repl.set_defaults(func=cmd_repl)

    p_build = sub.add_parser("build-lexicon", help="merge two lexical sources")
    p_build.add_argument("--primary", required=True, help="primary source XML")
    p_build.add_argument("--expansion", required=True, help="expansion source XML")
    p_build.add_argument("--oracle", required=True, help="allowlist TSV for verification")
    p_build.add_argument("--out", required=True, help="merged lexicon XML output")
    p_build.add_argument("--report", help="flat JSON merge report output")
    p_build.set_defaults(func=cmd_build_lexicon)

    p_train = sub.add_parser("train-lm", help="train the verb model from tagged text")
    p_train.add_argument("--corpus", required=True, help="tagged corpus, one sentence per line")
    p_train.add_argument("--out", required=True, help="model file output")
    p_train.set_defaults(func=cmd_train_lm)

    p_eval = sub.add_parser("evaluate", help="exact-match rate over a TSV corpus")
    _add_resource_flags(p_eval, max_candidates_default=0)
    p_eval.add_argument("--corpus", required=True, help="TSV of target<TAB>keywords")
    p_eval.set_defaults(func=cmd_evaluate)

    p_agree = sub.add_parser("agreement", help="annotator reliability measures")
    p_agree.add_argument("--annotations", required=True, help="annotation XML file")
    p_agree.set_defaults(func=cmd_agreement)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return status
    except BrokenPipeError:
        # Send the unwritten rest to devnull so the exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (FraseoError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
