"""In-memory span tracing around the public functions of the fraseo modules.

The tracer replaces module and class attributes of the package with thin
wrappers that record one span per call: name, start, end, parent span,
operation id, a small integer value (result size) and the name of any
exception that escaped. Spans live in flat arrays until the run ends, so
tracing does no I/O while it measures. ``install`` puts the wrappers in
place and ``uninstall`` restores the originals, so untraced passes run the
unmodified program. Installed wrappers record only while ``active`` is set,
so the benchmark's own checks between operations leave no spans.

The span name's first component is its layer, which is the package module
whose code the span covers (``planner``, ``lexicon``, ...). Two layers
are not package modules: ``bench`` is the benchmark's own operation span,
and ``process`` is interpreter start and exit of a CLI child process.
"""

import time
from array import array

LAYERS = ("cli", "pipeline", "planner", "grammar", "lexicon", "lm", "realizer", "builder")
OP_SPAN = "bench.op"
_CO_GENERATOR = 0x20  # code flag of generator functions; avoids importing inspect

# (module, attribute, span name, result sizer). The attribute is looked up
# at call time by the calling module, so patching it there is enough.
_FUNCTIONS = (
    ("pipeline", "generate", "pipeline.generate", "candidates"),
    ("pipeline", "load_resources", "pipeline.load_resources", None),
    ("pipeline", "tokenize_and_resolve", "planner.tokenize", "len"),
    ("pipeline", "plan_structures", "planner.plan_structures", "len"),
    ("pipeline", "realize", "realizer.realize", None),
    ("pipeline", "load_lexicon", "lexicon.load", "entries"),
    ("pipeline", "load_grammar", "grammar.load", None),
    ("pipeline", "load_polarity_pairs", "realizer.load_polarity_pairs", "len"),
    ("planner", "lookup_lemma", "lexicon.lookup_lemma", "len"),
    ("planner", "lookup_form", "lexicon.lookup_form", "len"),
    ("realizer", "inflect", "lexicon.inflect", None),
    ("lexicon", "load_lexicon", "lexicon.load", "entries"),
    ("lexicon", "save_lexicon", "lexicon.save", None),
    ("grammar", "enumerate_trees", "grammar.enumerate_trees", None),
    ("lm", "train_model", "lm.train_model", None),
    ("builder", "build_lexicon", "builder.build_lexicon", None),
    ("cli", "load_resources", "pipeline.load_resources", None),
    ("cli", "generate", "pipeline.generate", "candidates"),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name). Class-level patches reach every
# instance, including the model the bundled resources load.
_METHODS = (
    ("lm", "NGramModel", "top_preposition", "lm.top_preposition"),
    ("lm", "NGramModel", "preposition_after", "lm.preposition_after"),
    ("lm", "NGramModel", "reflexive_probability", "lm.reflexive_probability"),
    ("lm", "NGramModel", "save", "lm.save"),
    ("lm", "NGramModel", "load", "lm.load"),
    ("lexicon", "Lexicon", "from_entries", "lexicon.from_entries"),
    ("builder", "AllowlistOracle", "load", "builder.load_allowlist"),
)

_SIZERS = {
    None: lambda result: 0,
    "len": len,
    "entries": lambda result: len(result.entries),
    "candidates": lambda result: len(result.candidates),
}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.exc = array("i")
        self._stack = []
        self.current_op = -1
        self.active = False  # installed wrappers record spans only while set
        self._saved = []

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.value.append(0)
        self.exc.append(-1)
        self._stack.append(index)
        return index

    def close(self, index, value=0, exc=None):
        self.end[index] = time.perf_counter()
        self.value[index] = value
        if exc is not None:
            self.exc[index] = self.name_id(type(exc).__name__)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %s closed out of order" % self.names[self.name[index]])

    def add(self, name, started, ended, parent, value=0, exc_name=None):
        """Record a finished span measured elsewhere (a child process)."""
        index = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(started)
        self.end.append(ended)
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.value.append(value)
        self.exc.append(-1 if exc_name is None else self.name_id(exc_name))
        return index

    def wrap(self, name, fn, sizer=None):
        tracer = self
        name_id = self.name_id(name)
        size = _SIZERS[sizer]
        if getattr(fn, "__code__", None) is not None and fn.__code__.co_flags & _CO_GENERATOR:

            def traced_generator(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                index = tracer.open(name_id)
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    tracer.close(index, value=count)

            return traced_generator

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, exc=exc)
                raise
            tracer.close(index, value=size(result))
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of the imported ``fraseo`` modules.

        ``package`` maps module short names to module objects; modules that
        are absent are skipped, so a CLI child that never imports a module
        is not forced to.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span, sizer in _FUNCTIONS:
            module = package.get(module_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, sizer))
        for module_name, class_name, method, span in _METHODS:
            module = package.get(module_name)
            if module is None:
                continue
            cls = getattr(module, class_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if raw is None:
                continue
            self._saved.append((cls, method, raw))
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, method, self.wrap(span, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def span_records(self):
        """Every span as a plain tuple, for serialising."""
        names = self.names
        return [
            (
                names[self.name[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                self.op[i],
                self.value[i],
                names[self.exc[i]] if self.exc[i] >= 0 else None,
            )
            for i in range(len(self.start))
        ]

    def write(self, path):
        """Write every span as gzipped TSV, one line each."""
        import gzip

        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\top\tvalue\texception\n")
            for i in range(len(self.start)):
                exc = names[self.exc[i]] if self.exc[i] >= 0 else ""
                out.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%d\t%d\t%s\n"
                    % (i, names[self.name[i]], self.start[i], self.end[i],
                       self.parent[i], self.op[i], self.value[i], exc)
                )


class Summary:
    """Per-name and per-layer aggregates over a set of operations.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest without overlap, so that is the
    part of its interval no child covers.
    """

    def __init__(self, tracer, ops):
        ops = set(ops)
        names = tracer.names
        count = len(tracer.start)
        child_time = [0.0] * count
        selected = [i for i in range(count) if tracer.op[i] in ops]
        for i in selected:
            parent = tracer.parent[i]
            if parent >= 0:
                child_time[parent] += tracer.end[i] - tracer.start[i]
        self.ops = len(ops)
        self.calls = {}
        self.total = {}
        self.values = {}
        self.exceptions = {}
        self.layer_self = {}
        self.name_self = {}
        self.entry_calls = {}
        self.entry_total = {}
        for i in selected:
            name = names[tracer.name[i]]
            duration = tracer.end[i] - tracer.start[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.values[name] = self.values.get(name, 0) + tracer.value[i]
            if tracer.exc[i] >= 0:
                key = (name, names[tracer.exc[i]])
                self.exceptions[key] = self.exceptions.get(key, 0) + 1
            own = duration - child_time[i]
            self.name_self[name] = self.name_self.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
            parent = tracer.parent[i]
            parent_layer = names[tracer.name[parent]].split(".", 1)[0] if parent >= 0 else None
            if parent_layer != layer:
                # A call into this layer from another one.
                self.entry_calls[name] = self.entry_calls.get(name, 0) + 1
                self.entry_total[name] = self.entry_total.get(name, 0.0) + duration

    def ms(self, name):
        """Milliseconds spent inside spans called ``name``."""
        return self.total.get(name, 0.0) * 1e3

    def ms_per_op(self, name):
        return self.ms(name) / self.ops if self.ops else 0.0

    def ms_per_call(self, name):
        calls = self.calls.get(name, 0)
        return self.ms(name) / calls if calls else 0.0

    def self_ms_per_op(self, layer):
        return self.layer_self.get(layer, 0.0) * 1e3 / self.ops if self.ops else 0.0
