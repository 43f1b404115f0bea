"""Verb-centric usage statistics from a tagged corpus.

The training input is one sentence per line, each token written as
``surface/lemma/category`` (categories as in features.LexicalCategory).
Blank lines and ``#`` comments are ignored; lines with malformed tokens are
skipped and counted, never fatal.

For every verb occurrence the model counts:

* which preposition follows it directly (weight 1.0) or one token later
  (weight 0.5, counted regardless of what sits in between),
* whether the clitic ``se`` is adjacent on either side (reflexive evidence),
* the occurrence itself.

Queries normalize the preposition weights into a distribution and turn the
reflexive tally into a relative frequency.
"""

import math

from .errors import ModelError
from .features import LexicalCategory, Value
from .fileio import data_lines, read_text, write_text_atomic
from .grammar import TERMINALS

ADJACENT_WEIGHT = 1.0
SKIP_ONE_WEIGHT = 0.5
REFLEXIVE_LEMMA = "se"
_VERB = LexicalCategory.verb.value
_PREPOSITION = LexicalCategory.preposition.value


class TaggedToken(Value):
    __slots__ = ("surface", "lemma", "category")


def parse_tagged_line(line):
    """Split one corpus line into TaggedTokens; ValueError if malformed."""
    tokens = []
    for chunk in line.split():
        parts = chunk.split("/")
        if len(parts) != 3 or not all(parts):
            raise ValueError("malformed token %r" % chunk)
        surface, lemma, category = parts
        if category not in TERMINALS:
            raise ValueError("unknown category %r in token %r" % (category, chunk))
        tokens.append(TaggedToken(surface=surface, lemma=lemma, category=category))
    return tokens


class VerbStats:
    """One verb's tallies, changed in place as a model trains or loads."""

    __slots__ = ("total", "reflexive", "preps")

    def __init__(self):
        self.total = self.reflexive = 0
        self.preps = {}


class NGramModel:
    def __init__(self):
        self._verbs = {}
        self.skipped_lines = 0

    def verbs(self):
        return sorted(self._verbs)

    def known(self, verb):
        return verb in self._verbs

    def total_count(self, verb):
        stats = self._verbs.get(verb)
        return stats.total if stats else 0

    def observe_sentence(self, tokens):
        for index, token in enumerate(tokens):
            if token.category != _VERB:
                continue
            stats = self._verbs.get(token.lemma)
            if stats is None:
                stats = self._verbs[token.lemma] = VerbStats()
            stats.total += 1
            for neighbor in (index - 1, index + 1):
                if 0 <= neighbor < len(tokens) and tokens[neighbor].lemma == REFLEXIVE_LEMMA:
                    stats.reflexive += 1
                    break
            for offset, weight in ((1, ADJACENT_WEIGHT), (2, SKIP_ONE_WEIGHT)):
                position = index + offset
                if position >= len(tokens):
                    continue
                follower = tokens[position]
                if follower.category == _PREPOSITION:
                    stats.preps[follower.lemma] = stats.preps.get(follower.lemma, 0.0) + weight

    def preposition_after(self, verb):
        """Distribution over prepositions seen after the verb.

        Returns (preposition, probability) pairs, highest first, ties broken
        alphabetically; probabilities sum to 1.0. Empty for unseen verbs and
        for verbs whose preposition weights sum to 0 (none observed, or a
        loaded model whose weights are all 0.0).
        """
        stats = self._verbs.get(verb)
        mass = sum(stats.preps.values()) if stats else 0
        if not mass:
            return []
        ranked = sorted(stats.preps.items(), key=lambda item: (-item[1], item[0]))
        return [(prep, weight / mass) for prep, weight in ranked]

    def top_preposition(self, verb):
        ranked = self.preposition_after(verb)
        return ranked[0] if ranked else None

    def reflexive_probability(self, verb):
        stats = self._verbs.get(verb)
        if not stats or not stats.total:
            return 0.0
        return stats.reflexive / stats.total

    def raw_preposition_weight(self, verb, prep):
        stats = self._verbs.get(verb)
        if not stats:
            return 0.0
        return stats.preps.get(prep, 0.0)

    def save(self, path):
        lines = ["# verb usage model v1"]
        for verb in sorted(self._verbs):
            stats = self._verbs[verb]
            lines.append("V %s %d %d" % (verb, stats.total, stats.reflexive))
            for prep in sorted(stats.preps):
                lines.append("P %s %s %s" % (verb, prep, repr(stats.preps[prep])))
        write_text_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path):
        """Read a model file in the shape ``save`` writes.

        Each verb has one ``V`` line, before its ``P`` lines, and each (verb,
        preposition) pair at most one ``P`` line. A line that breaks this, or
        holds a count or weight no trained model can, raises ModelError with
        its line number.
        """
        model = cls()
        verbs = model._verbs
        first_lines = {}  # the line of each V record and of each (verb, prep) P record
        for number, line in data_lines(path, ModelError):
            parts = line.split()
            try:
                if parts[0] == "V" and len(parts) == 4:
                    key, total, reflexive = parts[1], int(parts[2]), int(parts[3])
                    if not 0 <= reflexive <= total:
                        raise ValueError("counts out of range")
                elif parts[0] == "P" and len(parts) == 4:
                    key, weight = (parts[1], parts[2]), float(parts[3])
                    if not 0 <= weight < math.inf:
                        raise ValueError("weight out of range")
                else:
                    raise ValueError("unrecognized record")
            except ValueError as exc:
                raise ModelError("bad model record %r" % line, number, path) from exc
            if key in first_lines:
                raise ModelError(
                    "repeated %s record %r (first on line %d)"
                    % (parts[0], line, first_lines[key]),
                    number,
                    path,
                )
            first_lines[key] = number
            if parts[0] == "V":
                stats = verbs[key] = VerbStats()
                stats.total, stats.reflexive = total, reflexive
            elif key[0] in verbs:
                verbs[key[0]].preps[key[1]] = weight
            else:
                raise ModelError(
                    "P record %r before the V record of its verb" % line, number, path
                )
        return model


def train_model(lines):
    """Build a model from an iterable of corpus lines."""
    model = NGramModel()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tokens = parse_tagged_line(line)
        except ValueError:
            model.skipped_lines += 1
            continue
        model.observe_sentence(tokens)
    return model


def train_file(path):
    """Build a model from the UTF-8 corpus file at ``path``; ModelError names a bad byte."""
    return train_model(read_text(path, ModelError).split("\n"))
