"""Independent reference implementations used to pin test values.

The agreement routines deliberately avoid the package's coincidence-matrix
code path: agreement is computed by enumerating every ordered pair of labels
inside each unit. ``reference_unify_entries`` is the two-entry unification
as it stood before it was folded into the builder's merge path.
``reference_derive`` is the grammar search with no memo and no lookahead,
``reference_covers`` the whole-input cover check as a question about it,
and ``leaf_payloads`` reads a derivation's fill
choices off its leaves. ``match_leaf_sequence`` runs ``grammar.derive``
over a category sequence, as the planner runs it over keywords, so tests
can check the masked search without a lexicon. ``reference_plan_roles``
scores a plan leaf by leaf from each leaf's parent and the node above it,
with no state carried by a tree walk. ``reference_plan_structures`` plans a keyword list with one
token list per subject attempt, brute force. Tests compare package output
against these routines.
"""

from functools import partial

from fraseo.features import AXES, INVARIABLE_CATEGORIES, LexicalCategory, Number
from fraseo.grammar import TERMINAL_BITS, TERMINALS, TreeNode, derive
from fraseo.lexicon import LexicalEntry, WordForm
from fraseo.planner import (
    _INSERTED,
    LM_PREPOSITION_THRESHOLD,
    NO_AGREEMENT,
    RATIONALE_DEFAULT_SUBJECT,
    SUBJECT_AGREEMENT,
    InputToken,
    SlotFill,
)


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
    """``grammar.covers``: whether some ``reference_derive`` run ends at ``len(masks)``.

    The run's fill lets a terminal take the next token when that token's
    mask holds the terminal's bit, and lets an ``insertable`` terminal take
    none. So the verdict keeps the depth limit, as ``derive`` does.
    """

    def fill(name, parent, grandparent, state):
        (position,) = state
        choices = []
        if position < len(masks) and masks[position] & TERMINAL_BITS[name]:
            choices.append((None, (position + 1,)))
        if name in insertable:
            choices.append((None, state))
        return choices

    return any(end == (len(masks),) for _tree, end in _derivations(grammar, fill, (0,)))


def reference_derive(grammar, fill, state=None):
    """Every ``(tree, end_state)`` of ``grammar.derive``, as a list.

    A plain recursive enumerator: rules in file order, bodies expanded
    leftmost first, ``fill(name, parent, grandparent, state)`` called at
    every terminal it reaches, each ``(payload, end)`` choice a new leaf
    holding the payload, and a nonterminal cut when it would occur more
    than ``grammar.depth_limit`` times on its path from the root. It keeps
    no memo and cuts nothing by lookahead.
    """
    return list(_derivations(grammar, fill, state))


def _derivations(grammar, fill, state):
    """``reference_derive``'s derivations, lazily."""

    def symbol(name, parent, grandparent, state, path):
        if name in TERMINALS:
            for payload, end in fill(name, parent, grandparent, state):
                yield TreeNode(name, (), payload), end
            return
        path = path + (name,)
        if path.count(name) > grammar.depth_limit:
            return
        for rule in grammar.rules_for[name]:
            for children, end in sequence(rule.body, name, parent, state, path):
                yield TreeNode(name, children), end

    def sequence(body, head, parent, state, path):
        if not body:
            yield (), state
            return
        for node, middle in symbol(body[0], head, parent, state, path):
            for rest, end in sequence(body[1:], head, parent, middle, path):
                yield (node,) + rest, end

    return symbol(grammar.start, None, None, state, ())


def leaf_payloads(tree):
    """The payloads of ``tree``'s leaves, in leaf order."""
    return tuple(nodes[-1].payload for _path, nodes in _leaf_paths(tree))


def match_leaf_sequence(grammar, cats):
    """Trees whose leaf sequence equals ``cats`` exactly, in DFS order.

    Equivalent to filtering enumerate_trees() on the leaf sequence; the
    search state is ``(position,)`` in ``cats``, and every leaf consumes
    exactly one category, so the search runs over their masks with no
    insertables.
    """
    if not cats:
        raise ValueError("empty category sequence")
    cats = tuple(cat.value if isinstance(cat, LexicalCategory) else cat for cat in cats)

    def fill(name, parent, grandparent, state):
        (position,) = state
        if position < len(cats) and cats[position] == name:
            return ((None, (position + 1,)),)
        return ()

    masks = [TERMINAL_BITS.get(cat, 0) for cat in cats]
    return [tree for tree, _end in derive(grammar, fill, (0,), masks)]


def _leaf_paths(node, path=(), nodes=()):
    """(child indices from the root, nodes from the root) of each leaf, in order."""
    nodes = nodes + (node,)
    if node.is_leaf:
        yield path, nodes
    for index, child in enumerate(node.children):
        yield from _leaf_paths(child, path + (index,), nodes)


def reference_plan_roles(lm, tree, elided_default):
    """(deviations, agreement targets, subject leaf count) of a plan, leaf by leaf.

    Each leaf's roles come from its fill, the leaf's payload, its parent
    and the node above, read off its path from the root. A noun's phrase
    is its parent when that is an SNS/SN, with the node above as the
    phrase's context, and otherwise the noun alone, with its parent as
    context. The noun wants a determiner in
    a subject (S), preposition (SP) or coordination (SNC) context, or when
    singular; it deviates when it lacks a wanted determiner (the phrase's
    first child, when that is a determiner leaf) or has an unwanted
    inserted one. A determiner under an SNS/SN agrees with the last noun
    among the phrase's children, as does an SADJ adjective whose SADJ is
    in such a phrase; an SADJ adjective under PRED agrees with the
    subject. One more deviation for an elided default subject, and one for
    each PRED (met at its first leaf, the leaf whose path below the PRED
    is all zeros) whose verb the usage model ``lm`` profiles for a
    preposition and whose second child is neither an SP nor a preposition.
    """
    leaves = list(_leaf_paths(tree))
    position = {path: pos for pos, (path, _nodes) in enumerate(leaves)}
    fills = leaf_payloads(tree)

    def noun_of(phrase, phrase_path):
        nouns = [i for i, child in enumerate(phrase.children) if child.symbol == "noun"]
        return position[phrase_path + (nouns[-1],)] if nouns else NO_AGREEMENT

    deviations = 1 if elided_default else 0
    targets = []
    for pos, (path, nodes) in enumerate(leaves):
        leaf, parent = nodes[-1], nodes[-2]
        above = nodes[-3].symbol if len(nodes) > 2 else None
        target = NO_AGREEMENT
        if leaf.symbol == "noun":
            determiner, context = None, parent.symbol
            if parent.symbol in ("SNS", "SN"):
                context = above
                if parent.children[0].symbol == "determiner":
                    determiner = position[path[:-1] + (0,)]
            form = fills[pos].form
            plural = form is not None and form.features.number is Number.plural
            wanted = context in ("S", "SP", "SNC") or not plural
            if determiner is None and wanted:
                deviations += 1
            elif determiner is not None and fills[determiner].is_inserted and not wanted:
                deviations += 1
        elif leaf.symbol == "determiner" and parent.symbol in ("SNS", "SN"):
            target = noun_of(parent, path[:-1])
        elif leaf.symbol == "adjective" and parent.symbol == "SADJ":
            if above in ("SNS", "SN"):
                target = noun_of(nodes[-3], path[:-2])
            elif above == "PRED":
                target = SUBJECT_AGREEMENT
        targets.append(target)
        for depth, pred in enumerate(nodes[:-1]):
            if pred.symbol != "PRED" or any(path[depth:]):
                continue
            top = fills[pos].entry and lm.top_preposition(fills[pos].entry.lemma)
            if (
                len(pred.children) > 1
                and top
                and top[1] >= LM_PREPOSITION_THRESHOLD
                and pred.children[1].symbol not in ("SP", "preposition")
            ):
                deviations += 1
    subject = 0
    if len(tree.children) == 2:
        subject = sum(1 for path, _nodes in leaves if path[0] == 0)
    return deviations, tuple(targets), subject


def _reference_fill(lexicon, lm, tokens, default, name, parent, grandparent, state):
    """The planner's terminal fill, restated; ``default`` says token 0 is the default subject.

    A token fills a leaf it reads as, one choice per reading in lexicon
    order; otherwise a terminal of ``_INSERTED`` inserts its word, except a
    preposition under PRED (or under an SP under PRED), which takes the
    usage model's top preposition after the verb when it is likely enough,
    and else nothing.
    """
    pos, verb = state
    category = LexicalCategory(name)
    token = tokens[pos] if pos < len(tokens) else None
    if token is not None and category in token.readings:
        rationale = RATIONALE_DEFAULT_SUBJECT if default and pos == 0 else None
        choices = []
        for entry, form in token.readings[category]:
            first_verb = category is LexicalCategory.verb and verb is None
            fill = SlotFill(
                category=category, surface=token.raw, token=token,
                entry=entry, form=form, rationale=rationale,
            )
            choices.append((fill, (pos + 1, entry.lemma if first_verb else verb)))
        return choices
    surface = _INSERTED.get(name)
    if name == "preposition" and "PRED" in (parent, grandparent if parent == "SP" else None):
        top = None if verb is None else lm.top_preposition(verb)
        surface = top[0] if top is not None and top[1] >= LM_PREPOSITION_THRESHOLD else None
    if surface is None:
        return ()
    entry = next(
        (entry for entry in lexicon.lemma_index.get(surface, ()) if entry.category is category),
        None,
    )
    fill = SlotFill(
        category=category, surface=surface, entry=entry,
        form=entry.forms[0] if entry else None, rationale=name,
    )
    return ((fill, state),)


def reference_plan_structures(tokens, grammar, lexicon, lm):
    """``[(tree, slot_assignment)]`` of ``planner.plan_structures`` in discovery order.

    The slot assignment is the tree's leaf payloads, in leaf order.

    Brute force, with a token list per subject attempt: split the content
    tokens at the first verb-readable one, drop a trailing pronoun ``se``
    from the subject, and plan nothing for a subjectless list that holds a
    preposition-readable token. A list with a subject is one attempt; a
    subjectless one is two, a fresh default subject ``yo`` (from the
    surface index) before the predicate, then the predicate alone. Each
    attempt runs ``reference_derive`` from (0, no verb) and keeps the
    derivations that consume the whole list and whose root has two
    children exactly when the attempt has a subject. Empty where planning
    raises.
    """
    content = [token for token in tokens if token.marker is None]
    verbs = [pos for pos, token in enumerate(content) if LexicalCategory.verb in token.readings]
    if not verbs:
        return []
    subject, predicate = content[: verbs[0]], content[verbs[0]:]
    pronouns = subject[-1].readings.get(LexicalCategory.pronoun, ()) if subject else ()
    if any(entry.lemma == "se" for entry, _form in pronouns):
        subject = subject[:-1]
    if subject:
        attempts = [(subject + predicate, True, False)]
    elif any(LexicalCategory.preposition in token.readings for token in predicate):
        return []
    else:
        readings = {}
        for entry, form in lexicon.form_index.get("yo", ()):
            readings[entry.category] = readings.get(entry.category, ()) + ((entry, form),)
        yo = InputToken("yo", readings)
        attempts = [([yo] + predicate, True, True), (predicate, False, False)]
    plans = []
    for attempt, has_subject, default in attempts:
        fill = partial(_reference_fill, lexicon, lm, attempt, default)
        for tree, (end, _verb) in reference_derive(grammar, fill, (0, None)):
            if end == len(attempt) and (len(tree.children) == 2) == has_subject:
                plans.append((tree, leaf_payloads(tree)))
    return plans
