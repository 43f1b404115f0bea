"""Independent reference implementations used to pin test values.

The agreement routines deliberately avoid the package's coincidence-matrix
code path: agreement is computed by enumerating every ordered pair of labels
inside each unit. ``reference_unify_entries`` is the two-entry unification
as it stood before it was folded into the builder's merge path.
``reference_covers`` is the whole-input cover check without the FIRST-set
filter on start positions. Tests compare package output against these
routines.
"""

from fraseo.features import AXES, INVARIABLE_CATEGORIES
from fraseo.grammar import TERMINAL_BITS, TERMINALS
from fraseo.lexicon import LexicalEntry, WordForm


def pairable_units(unit_labels):
    return [list(labels) for labels in unit_labels if len(labels) >= 2]


def brute_force_alpha(unit_labels):
    """(alpha, degenerate) over a list of per-unit label lists."""
    units = pairable_units(unit_labels)
    n = sum(len(labels) for labels in units)
    if n <= 1:
        return 1.0, True
    disagree = 0.0
    for labels in units:
        m = len(labels)
        for i in range(m):
            for j in range(m):
                if i != j and labels[i] != labels[j]:
                    disagree += 1.0 / (m - 1)
    observed = disagree / n
    totals = {}
    for labels in units:
        for value in labels:
            totals[value] = totals.get(value, 0) + 1
    expected_sum = 0.0
    for c in totals:
        for k in totals:
            if c != k:
                expected_sum += totals[c] * totals[k]
    expected = expected_sum / (n * (n - 1.0))
    if expected == 0.0:
        return 1.0, True
    return 1.0 - observed / expected, False


def brute_force_accuracy(unit_labels):
    """Fraction of agreeing pairable pairs, weighted exactly like alpha."""
    units = pairable_units(unit_labels)
    n = sum(len(labels) for labels in units)
    if n <= 0:
        return 1.0
    agree = 0.0
    for labels in units:
        m = len(labels)
        for i in range(m):
            for j in range(m):
                if i != j and labels[i] == labels[j]:
                    agree += 1.0 / (m - 1)
    return agree / n


def unit_labels_from_table(table, observers, units):
    """Per-unit label lists from a {(observer, unit): label} mapping."""
    out = []
    for unit in units:
        labels = []
        for observer in observers:
            value = table.get((observer, unit))
            if value is not None:
                labels.append(value)
        out.append(labels)
    return out


def _bundle_key(features):
    return tuple(getattr(features, axis).value for axis in AXES)


def _form_key(form):
    return (form.surface, _bundle_key(form.features))


def _cluster_forms(forms):
    ordered = sorted(forms, key=_form_key)
    clusters = []
    for form in ordered:
        for index, (bundle, support) in enumerate(clusters):
            try:
                merged = bundle.merged_with(form.features)
            except ValueError:
                continue
            clusters[index] = (merged, support + 1)
            break
        else:
            clusters.append((form.features, 1))
    clusters.sort(key=lambda item: (-item[1], _bundle_key(item[0])))
    return clusters


def reference_unify_entries(a, b):
    """Unified entry, None on any ambiguous shared surface, ValueError on different words."""
    if a.lemma != b.lemma or a.category is not b.category:
        raise ValueError(
            "cannot unify %r/%s with %r/%s"
            % (a.lemma, a.category.value, b.lemma, b.category.value)
        )
    if a.category in INVARIABLE_CATEGORIES:
        forms = (WordForm(surface=a.lemma),)
    else:
        by_surface = {}
        for form in list(a.forms) + list(b.forms):
            by_surface.setdefault(form.surface, []).append(form)
        forms = []
        for surface in sorted(by_surface):
            clusters = _cluster_forms(by_surface[surface])
            if len(clusters) > 1:
                return None
            forms.append(WordForm(surface=surface, features=clusters[0][0]))
        forms = tuple(sorted(forms, key=_form_key))
    values = {}
    for entry in (a, b):
        for key, value in entry.extras:
            values.setdefault(key, set()).add(value)
    extras = tuple((key, sorted(values[key])[0]) for key in sorted(values))
    classes = sorted(
        {entry.adverb_class for entry in (a, b) if entry.adverb_class is not None},
        key=lambda item: item.value,
    )
    return LexicalEntry(
        lemma=a.lemma,
        category=a.category,
        forms=forms,
        adverb_class=classes[0] if classes else None,
        reflexive_capable=a.reflexive_capable or b.reflexive_capable,
        extras=extras,
    ).validate()


def reference_covers(grammar, masks, insertable):
    """``grammar.covers`` as a recognizer that tries every start position.

    A memoized chart over (symbol, start position) pairs whose end
    positions are int bitsets; a pair read while it is being computed (left
    recursion) gives the previous pass's ends, none at first, and passes
    repeat until no pair changes.
    """
    rules = {
        head: [
            [
                (None, TERMINAL_BITS[name], name in insertable)
                if name in TERMINALS else (name, 0, False)
                for name in rule.body
            ]
            for rule in head_rules
        ]
        for head, head_rules in grammar.rules_for.items()
    }
    fits = dict.fromkeys(TERMINAL_BITS.values(), 0)
    for pos, mask in enumerate(masks):
        for bit in fits:
            if mask & bit:
                fits[bit] |= 1 << pos
    seeds = {}
    while True:
        memo = {}
        looped = []

        def ends(symbol, start):
            key = (symbol, start)
            if key in memo:
                if memo[key] is None:  # being computed
                    looped.append(key)
                    return seeds.get(key, 0)
                return memo[key]
            memo[key] = None
            found = 0
            for body in rules[symbol]:
                reached = 1 << start
                for name, bit, skip in body:
                    if name is None:
                        reached = (reached if skip else 0) | (reached & fits[bit]) << 1
                    else:
                        starts, reached = reached, 0
                        for pos in range(len(masks) + 1):
                            if starts >> pos & 1:
                                reached |= ends(name, pos)
                found |= reached
            memo[key] = found
            return found

        reached = ends(grammar.start, 0)
        if not looped or memo == seeds:
            return bool(reached >> len(masks) & 1)
        seeds = memo
