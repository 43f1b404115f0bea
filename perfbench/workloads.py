"""The benchmark's workloads: inputs, one operation each, and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs depend on the seed alone; the
package sees only the generated inputs. A check returns None for a correct
output and a one-line reason otherwise. ``render`` turns an output into a
line of text: the run compares renders of the same input for determinism
and hashes them into the workload's output digest.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent

# Hand-written keyword lists and references. ``target``: the sentence must
# be among the candidates (rank 1 is not required; rank-1 hits are only
# counted). ``first``/``top``: the leading candidates, in order.
# ``contains``: further sentences that must appear. ``echo``: the input
# must be echoed back.
CORPUS = (
    # exact_match_corpus.tsv
    (("pantalón", "ser", "morado"), {"target": "El pantalón es morado."}),
    (("mamá", "cepillar", "perro"), {"target": "Mamá cepilla al perro."}),
    (("bebé", "empezar", "caminar"), {"target": "El bebé empieza a caminar."}),
    (("querer", "comer", "melón", "limón"), {"target": "Quiero comer melón y limón."}),
    (("mamá", "se", "secar", "pelo", "con", "secador"),
     {"target": "Mamá se seca el pelo con el secador."}),
    (("abejas", "volar", "alrededor", "de", "flor", "rosa"),
     {"target": "Las abejas vuelan alrededor de la flor rosa."}),
    (("niño", "inflar", "un", "globo", "gigante", "de", "color", "azul"),
     {"target": "El niño infla un globo gigante de color azul."}),
    (("libro", "estuche", "estar", "dentro", "de", "mochila"),
     {"target": "El libro y el estuche están dentro de la mochila."}),
    (("niños", "pintar", "un", "lápiz", "azul", "en", "papel", "blanco"),
     {"target": "Los niños pintan con un lápiz azul en papel blanco."}),
    # non_svo_corpus.tsv
    (("caer", "sal", "a", "mantel"), {"echo": True}),
    # README and acceptance examples
    (("dibujar", "animales"),
     {"top": ("Yo dibujo animales.", "Yo dibujo los animales.", "Dibujo animales.")}),
    (("Ana", "ir", "colegio", "no"), {"first": "Ana no va al colegio."}),
    (("pájaros", "poder", "volar", "?"), {"first": "¿Los pájaros pueden volar?"}),
    (("profesor", "escribir", "letras", "números", "en", "pizarra"),
     {"first": "El profesor escribe las letras y los números en la pizarra."}),
    (("abejas", "volar", "alrededor", "de", "flor", "amarillo"),
     {"first": "Las abejas vuelan alrededor de la flor amarilla."}),
    (("niñas", "tomar", "batido", "chocolate"),
     {"first": "Las niñas toman el batido del chocolate.",
      "contains": ("Las niñas toman el batido y el chocolate.",)}),
    (("lobo", "comer", "niñas"), {"first": "El lobo come niñas."}),
    (("cuidadora", "nosotros", "comer", "manzanas"),
     {"first": "La cuidadora y nosotros comemos manzanas."}),
    (("yo", "ir", "siempre", "a", "teatro", "no"), {"first": "Yo no voy nunca al teatro."}),
    (("él", "comer", "con", "yo"), {"first": "Él come conmigo."}),
)

CLI_CAP = 3  # the CLI's default --max-candidates
FUZZ_CAP = 3
FUZZ_LISTS = 6000
ENUMERATED_TREES = 66_779  # trees the bundled grammar yields (acceptance gate)

_WORD_RE = re.compile(r"\w+")


def _normalize(text):
    return " ".join(text.split())


def _no_count(text):
    return sum(1 for word in _WORD_RE.findall(text.lower()) if word == "no")


def generation_invariants(words, result, cap):
    """Properties every generate() result must have, whatever the input."""
    words = tuple(words)
    texts = [_normalize(candidate.text) for candidate in result.candidates]
    if result.echo:
        if texts:
            return "echo with candidates"
        if tuple(result.input_words) != words:
            return "echo changed the input words"
        if result.echo_text != " ".join(words):
            return "echo text differs from the input"
        return None
    if not texts:
        return "no candidates and no echo"
    if cap and len(texts) > cap:
        return "%d candidates over the cap of %d" % (len(texts), cap)
    if len(set(texts)) != len(texts):
        return "duplicate candidates"
    negative = any(word.strip().lower() == "no" for word in words)
    for text in texts:
        if not text.endswith((".", "?")):
            return "candidate %r does not end in '.' or '?'" % text
        if _no_count(text) != (1 if negative else 0):
            return "candidate %r has %d 'no' for a %s input" % (
                text, _no_count(text), "negative" if negative else "positive")
    return None


def reference_errors(texts, echo, ref):
    """Differences between a ranked text list and a hand-written reference."""
    if ref.get("echo"):
        return None if echo else "expected an echo"
    if echo:
        return "unexpected echo"
    if "first" in ref and texts[:1] != [ref["first"]]:
        return "first candidate %r, expected %r" % (texts[:1], ref["first"])
    if "top" in ref and tuple(texts[:len(ref["top"])]) != ref["top"]:
        return "leading candidates %r, expected %r" % (texts[:len(ref["top"])], ref["top"])
    for text in ref.get("contains", ()):
        if text not in texts:
            return "missing candidate %r" % text
    return None


def _render_generation(result):
    if result.echo:
        return "echo " + result.echo_text
    return " | ".join(_normalize(candidate.text) for candidate in result.candidates)


def _planted_generation(words):
    """A plainly wrong result, for the checker self-test."""
    wrong = SimpleNamespace(text="planted wrong candidate")
    return SimpleNamespace(input_words=tuple(words), mode=None, candidates=(wrong,),
                           echo=False, echo_text=" ".join(words))


class Corpus:
    name = "corpus"
    in_process = True

    def __init__(self, seed, ctx):
        self.pkg = ctx.pkg
        self.resources = ctx.resources
        self.items = list(CORPUS)
        self.start = seed % len(self.items)
        self.top1_hits = 0

    def run(self, item):
        words, _ref = item
        return self.pkg["pipeline"].generate(words, self.resources, max_candidates=0)

    def check(self, item, result):
        words, ref = item
        error = generation_invariants(words, result, 0)
        if error is None:
            texts = [_normalize(candidate.text) for candidate in result.candidates]
            error = reference_errors(texts, result.echo, ref)
            if error is None and "target" in ref and ref["target"] not in texts:
                error = "target %r not among %d candidates" % (ref["target"], len(texts))
        return error

    def note_first(self, item, result):
        _words, ref = item
        if "target" in ref and result.candidates and (
                _normalize(result.candidates[0].text) == ref["target"]):
            self.top1_hits += 1

    def render(self, item, result):
        return _render_generation(result)

    def planted_wrong(self, item):
        return _planted_generation(item[0])


VOWELS = "aeiou"
CONSONANTS = "bcdfglmnprstvz"


def _pseudo_word(rng, syllables):
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables))


def fuzz_lists(seed, vocab, count=FUZZ_LISTS):
    """Seeded keyword lists of 0-7 words from the lexicon's vocabulary.

    Every length from 0 to 7 comes equally often, in a seeded order. About
    7% of words are ``no``, 5% ``?`` and 8% out of vocabulary (pseudo-words,
    half of them capitalised like names).
    """
    rng = random.Random("fuzz-%d" % seed)
    known = set(vocab)
    lists = []
    for index in range(count):
        words = []
        for _ in range(index % 8):  # every length equally often
            roll = rng.random()
            if roll < 0.07:
                words.append("no")
            elif roll < 0.12:
                words.append("?")
            elif roll < 0.20:
                word = _pseudo_word(rng, rng.randint(2, 4))
                while word in known:
                    word = _pseudo_word(rng, rng.randint(2, 4))
                words.append(word.capitalize() if rng.random() < 0.5 else word)
            else:
                words.append(rng.choice(vocab))
        lists.append(tuple(words))
    rng.shuffle(lists)
    return lists


def load_vocab():
    with open(HERE / "fuzz_vocab.txt", encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip() and not line.startswith("#")]


class Fuzz:
    name = "fuzz"
    in_process = True

    def __init__(self, seed, ctx):
        self.pkg = ctx.pkg
        self.resources = ctx.resources
        self.items = fuzz_lists(seed, load_vocab())
        self.start = 0

    def run(self, words):
        return self.pkg["pipeline"].generate(words, self.resources, max_candidates=FUZZ_CAP)

    def check(self, words, result):
        return generation_invariants(words, result, FUZZ_CAP)

    def note_first(self, words, result):
        pass

    def render(self, words, result):
        return _render_generation(result)

    def planted_wrong(self, words):
        return _planted_generation(words)


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(argv, env, extra_env=None):
    """Run one child process; returns (status, stdout, ru_maxrss in KiB, end time)."""
    if extra_env:
        env = dict(env, **extra_env)
    # One pipe for both streams: nothing can block on a full second pipe, and
    # an error message fails the output check like any other stray text.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait4 rather than wait(): it returns the child's own peak memory.
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ended = time.perf_counter()
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss, ended


class Cli:
    """One ``fraseo generate`` process per operation, plain and JSON alternating."""

    name = "cli"
    in_process = False

    def __init__(self, seed, ctx):
        self.env = child_env(ctx.root)
        self.workdir = ctx.workdir
        self.items = []
        for words, ref in CORPUS:
            # What the library returns under the CLI's cap; the CLI must agree.
            expected = ctx.pkg["pipeline"].generate(words, ctx.resources,
                                                    max_candidates=CLI_CAP)
            texts = [_normalize(c.text) for c in expected.candidates]
            for fmt in ("plain", "json"):
                self.items.append((words, ref, fmt, expected.echo, texts))
        self.start = 2 * (seed % len(CORPUS))
        self.max_rss_kib = 0
        self.top1_hits = 0

    def _argv(self, item, traced):
        words, _ref, fmt, _echo, _texts = item
        if traced:
            head = [sys.executable, str(HERE / "child.py"), "cli"]
        else:
            head = [sys.executable, "-m", "fraseo.cli"]
        fmt_args = ["--format", "json"] if fmt == "json" else []
        return head + ["generate"] + fmt_args + list(words)

    def run(self, item):
        status, out, rss, _ended = run_child(self._argv(item, False), self.env)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        return status, out

    def run_traced(self, item, tracer, op_span):
        """Run the traced child and graft its spans under ``op_span``."""
        spans_path = self.workdir / "cli-spans.json"
        status, out, rss, ended = run_child(
            self._argv(item, True), self.env, {"PERFBENCH_SPANS": str(spans_path)})
        self.max_rss_kib = max(self.max_rss_kib, rss)
        with open(spans_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        os.unlink(spans_path)
        spawned = tracer.start[op_span]
        tracer.add("process.start", spawned, payload["enter"], op_span)
        offset = len(tracer)
        for name, start, end, parent, _op, value, exc in payload["spans"]:
            tracer.add(name, start, end, op_span if parent < 0 else parent + offset, value, exc)
        tracer.add("process.exit", payload["leave"], ended, op_span)
        return status, out

    def check(self, item, output):
        words, ref, fmt, echo, texts = item
        status, out = output
        want_status = 2 if echo else 0
        if status != want_status:
            return "exit status %d, expected %d" % (status, want_status)
        if fmt == "json":
            try:
                payload = json.loads(out)
            except ValueError:
                return "output is not JSON"
            got_echo = "echo" in payload
            if got_echo and payload["echo"] != " ".join(words):
                return "JSON echo %r differs from the input" % payload["echo"]
            got = [_normalize(c["text"]) for c in payload["candidates"]]
        else:
            lines = out.splitlines()
            got_echo = echo and lines == [" ".join(words)]
            got = [] if got_echo else [_normalize(line) for line in lines]
        if got_echo != echo or got != texts:
            return "CLI printed %r, the library returns %r" % (got, texts)
        return reference_errors(got, got_echo, ref)

    def note_first(self, item, output):
        _words, ref, fmt, _echo, texts = item
        if fmt == "plain" and "target" in ref and texts[:1] == [ref["target"]]:
            self.top1_hits += 1

    def render(self, item, output):
        status, out = output
        return "%d %s" % (status, out.replace("\n", "\\n"))

    def planted_wrong(self, item):
        return 0, "planted wrong candidate\n"


# Tooling inputs. Primary source: noun, verb, adjective and adverb entries
# under varied category spellings, plus entries of dropped categories. The
# expansion source repeats about 40% of the primary lemmas with partial
# feature bundles (they unify with the primary ones) and links some of them
# to lemmas found only there. The allowlist leaves out about 10% of lemmas.
TOOLING_LEMMAS = 200
TOOLING_SENTENCES = 1200
_SPELLINGS = {
    "noun": ("noun", "Noun", " NOUN"),
    "verb": ("verb", "Verb", "VERB "),
    "adjective": ("adjective", "Adjective"),
    "adverb": ("adverb", "Adverb"),
}
_VERB_ENDINGS = (("o", "1", "s"), ("as", "2", "s"), ("a", "3", "s"),
                 ("amos", "1", "p"), ("ais", "2", "p"), ("an", "3", "p"))
_PREPOSITIONS = ("a", "con", "de", "en", "para", "por")


def _forms(stem, category):
    """(surface, attrs) forms of a synthetic lemma; attrs as XML codes."""
    if category == "noun":
        gender = "m" if stem.endswith(("b", "d", "l")) else "f"
        return [(stem + "o", {"gender": gender, "number": "s"}),
                (stem + "os", {"gender": gender, "number": "p"})]
    if category == "verb":
        forms = [(stem + "ar", {"mood": "inf"})]
        for ending, person, number in _VERB_ENDINGS:
            forms.append((stem + ending, {"person": person, "number": number,
                                          "tense": "pres", "mood": "ind"}))
        return forms
    if category == "adjective":
        return [(stem + "ento", {"gender": "m", "number": "s"}),
                (stem + "enta", {"gender": "f", "number": "s"}),
                (stem + "entos", {"gender": "m", "number": "p"}),
                (stem + "entas", {"gender": "f", "number": "p"})]
    return [(stem + "mente", {})]


def _entry_xml(lemma, category, forms, extra=""):
    lines = ['  <entry lemma="%s" cat="%s"%s>' % (lemma, category, extra)]
    for surface, attrs in forms:
        codes = "".join(' %s="%s"' % item for item in sorted(attrs.items()))
        lines.append('    <form surface="%s"%s/>' % (surface, codes))
    lines.append("  </entry>")
    return lines


def tooling_inputs(seed, workdir):
    """Write the seeded sources and allowlist; return paths and expectations."""
    rng = random.Random("tooling-%d" % seed)
    stems = set()
    while len(stems) < TOOLING_LEMMAS + TOOLING_LEMMAS // 4:
        stems.add(_pseudo_word(rng, rng.randint(2, 3)) + rng.choice("bdlmnrst"))
    stems = sorted(stems)
    rng.shuffle(stems)
    primary_stems, extra_stems = stems[:TOOLING_LEMMAS], stems[TOOLING_LEMMAS:]

    primary = ['<?xml version="1.0" encoding="utf-8"?>', '<lexicon source="alpha">']
    expansion = ['<?xml version="1.0" encoding="utf-8"?>', '<lexicon source="beta">']
    allow = []
    expected = {}  # (lemma, category) -> sorted surfaces
    merged_common = 0
    dropped = 0
    extra_iter = iter(extra_stems)
    for stem in primary_stems:
        roll = rng.random()
        if roll < 0.05:
            category = rng.choice(("interjection", "numeral"))
            primary += _entry_xml(stem + "e", category, [(stem + "e", {})])
            dropped += 1
            continue
        category = ("noun" if roll < 0.5 else "verb" if roll < 0.8
                    else "adjective" if roll < 0.95 else "adverb")
        forms = _forms(stem, category)
        lemma = forms[0][0]
        primary += _entry_xml(lemma, rng.choice(_SPELLINGS[category]), forms)
        allowed = rng.random() < 0.9
        if allowed:
            allow.append("%s\t%s" % (lemma, category))
            expected[(lemma, category)] = sorted(surface for surface, _ in forms)
        if rng.random() < 0.4:
            # A twin with partial bundles: drop one feature from each form.
            partial = [(surface, dict(list(attrs.items())[1:])) for surface, attrs in forms]
            link = ""
            if rng.random() < 0.5:
                related_stem = next(extra_iter, None)
                if related_stem is not None:
                    related = related_stem + "o"
                    link = ' x-related="%s"' % related
                    related_forms = _forms(related_stem, "noun")
                    expansion += _entry_xml(related, "noun", related_forms)
                    if rng.random() < 0.8:
                        allow.append("%s\tnoun" % related)
                        expected[(related, "noun")] = sorted(s for s, _ in related_forms)
            expansion += _entry_xml(lemma, category, partial, link)
            if allowed:
                merged_common += 1
    # Expansion entries nothing links to never reach the merged lexicon.
    for stem in extra_iter:
        expansion += _entry_xml(stem + "o", "noun", _forms(stem, "noun"))
    primary.append("</lexicon>")
    expansion.append("</lexicon>")

    paths = SimpleNamespace(
        primary=workdir / "primary.xml", expansion=workdir / "expansion.xml",
        allowlist=workdir / "allowlist.tsv", lexicon=workdir / "merged.xml",
        model=workdir / "model.lm")
    paths.primary.write_text("\n".join(primary) + "\n", encoding="utf-8")
    paths.expansion.write_text("\n".join(expansion) + "\n", encoding="utf-8")
    paths.allowlist.write_text("\n".join(allow) + "\n", encoding="utf-8")

    corpus, model_expected = _tagged_corpus(rng, primary_stems)
    return paths, corpus, SimpleNamespace(
        entries=expected, merged_common=merged_common, dropped=dropped, **model_expected)


def _tagged_corpus(rng, stems):
    """Tagged sentences with one verb each, and the counts they imply.

    The verb model counts a preposition right after a verb with weight 1.0,
    one token later with 0.5, and an adjacent ``se`` as reflexive evidence.
    """
    verbs = [stem + "ar" for stem in stems[:80]]
    nouns = [stem + "o" for stem in stems[80:200]]
    totals, reflexive, preps = {}, {}, {}
    lines = ["# synthetic tagged corpus"]
    skipped = 0
    for _ in range(TOOLING_SENTENCES):
        if rng.random() < 0.01:
            lines.append("roto/roto verb")
            skipped += 1
            continue
        verb = rng.choice(verbs)
        noun = rng.choice(nouns)
        tokens = ["el/el/determiner", "%s/%s/noun" % (noun, noun)]
        totals[verb] = totals.get(verb, 0) + 1
        if rng.random() < 0.3:
            tokens.append("se/se/pronoun")
            reflexive[verb] = reflexive.get(verb, 0) + 1
        tokens.append("%sa/%s/verb" % (verb[:-2], verb))
        shape = rng.random()
        prep = rng.choice(_PREPOSITIONS)
        other = rng.choice(nouns)
        if shape < 0.4:
            tokens += ["%s/%s/preposition" % (prep, prep), "%s/%s/noun" % (other, other)]
            key = (verb, prep)
            preps[key] = preps.get(key, 0.0) + 1.0
        elif shape < 0.6:
            tokens += ["bien/bien/adverb", "%s/%s/preposition" % (prep, prep),
                       "%s/%s/noun" % (other, other)]
            key = (verb, prep)
            preps[key] = preps.get(key, 0.0) + 0.5
        else:
            tokens += ["el/el/determiner", "%s/%s/noun" % (other, other)]
        lines.append(" ".join(tokens))
    return lines, {"totals": totals, "reflexive": reflexive, "preps": preps,
                   "skipped": skipped}


class Tooling:
    """One round of the offline tools on the seeded inputs."""

    name = "tooling"
    in_process = True

    def __init__(self, seed, ctx):
        self.pkg = ctx.pkg
        self.grammar = ctx.resources.grammar
        self.paths, self.corpus, self.expected = tooling_inputs(seed, ctx.workdir)
        self.items = [0]
        self.start = 0

    def run(self, _item):
        builder, lexicon, lm, grammar = (self.pkg[name] for name in
                                         ("builder", "lexicon", "lm", "grammar"))
        paths = self.paths
        oracle = builder.AllowlistOracle.load(paths.allowlist)
        built, report = builder.build_lexicon(paths.primary, paths.expansion, oracle)
        lexicon.save_lexicon(built, paths.lexicon)
        reloaded = lexicon.load_lexicon(paths.lexicon)
        model = lm.train_model(self.corpus)
        model.save(paths.model)
        model_reloaded = lm.NGramModel.load(paths.model)
        trees = 0
        for _tree in grammar.enumerate_trees(self.grammar):
            trees += 1
        return SimpleNamespace(built=built, report=report, reloaded=reloaded, model=model,
                               model_reloaded=model_reloaded, trees=trees)

    def check(self, _item, out):
        expected = self.expected
        got = {(entry.lemma, entry.category.value): sorted(f.surface for f in entry.forms)
               for entry in out.built.entries}
        if got != expected.entries:
            missing = sorted(set(expected.entries) - set(got))[:3]
            extra = sorted(set(got) - set(expected.entries))[:3]
            return "merged lexicon differs: missing %s, unexpected %s, or forms differ" % (
                missing, extra)
        if out.report.merged_common != expected.merged_common:
            return "merged %d common entries, expected %d" % (
                out.report.merged_common, expected.merged_common)
        if out.report.dropped_records != expected.dropped:
            return "dropped %d records, expected %d" % (
                out.report.dropped_records, expected.dropped)
        if out.reloaded.entries != out.built.entries:
            return "lexicon changed in a save/load round trip"
        if out.model.skipped_lines != expected.skipped:
            return "skipped %d corpus lines, expected %d" % (
                out.model.skipped_lines, expected.skipped)
        for model in (out.model, out.model_reloaded):
            if model.verbs() != sorted(expected.totals):
                return "model verbs differ"
            for verb, total in expected.totals.items():
                if model.total_count(verb) != total:
                    return "count of %s is %d, expected %d" % (
                        verb, model.total_count(verb), total)
                want = expected.reflexive.get(verb, 0) / total
                if model.reflexive_probability(verb) != want:
                    return "reflexive probability of %s differs" % verb
                for prep in _PREPOSITIONS:
                    weight = expected.preps.get((verb, prep), 0.0)
                    if model.raw_preposition_weight(verb, prep) != weight:
                        return "weight of %s %s differs" % (verb, prep)
        if out.trees != ENUMERATED_TREES:
            return "enumerated %d trees, expected %d" % (out.trees, ENUMERATED_TREES)
        return None

    def note_first(self, item, out):
        pass

    def render(self, _item, out):
        lexicon_text = self.paths.lexicon.read_text(encoding="utf-8")
        model_text = self.paths.model.read_text(encoding="utf-8")
        return "%d %d %d %s %s" % (len(out.built.entries), len(model_text), out.trees,
                                   _digest(lexicon_text), _digest(model_text))

    def planted_wrong(self, item):
        out = self.run(item)
        out.trees += 1
        return out


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


WORKLOADS = {"corpus": Corpus, "fuzz": Fuzz, "cli": Cli, "tooling": Tooling}
