"""Child processes of the benchmark.

``child.py setup`` times ``import fraseo`` plus ``load_default_resources()``
in a fresh interpreter and prints the seconds as JSON.

``child.py cli ARGS...`` runs ``fraseo.cli.main(ARGS)`` under the tracer:
it times the import of ``fraseo.cli``, wraps the package's public
functions, runs the command, and writes its spans as JSON to the file
named by ``PERFBENCH_SPANS``. It exits with the command's status.
"""

import time

ENTERED = time.perf_counter()

import os  # noqa: E402  (already loaded by the interpreter; timing starts above)
import sys  # noqa: E402


def setup():
    started = time.perf_counter()
    import fraseo

    fraseo.load_default_resources()
    elapsed = time.perf_counter() - started
    print('{"setup_s": %r}' % elapsed)
    return 0


def cli(argv):
    import tracing

    tracer = tracing.Tracer()
    tracer.current_op = 0
    tracer.active = True
    span = tracer.open(tracer.name_id("cli.import"))
    import fraseo.cli

    tracer.close(span)
    modules = {name: sys.modules.get("fraseo." + name) for name in
               ("cli", "pipeline", "planner", "realizer", "lexicon", "grammar", "lm", "builder")}
    tracer.install(modules)
    status = fraseo.cli.main(argv)
    sys.stdout.flush()
    left = time.perf_counter()

    import json

    with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as out:
        json.dump({"enter": ENTERED, "leave": left,
                   "spans": tracer.span_records()}, out)
    return status


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup())
    if mode == "cli":
        sys.exit(cli(sys.argv[2:]))
    sys.exit("unknown mode %r" % mode)
