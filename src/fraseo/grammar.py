"""Feature-annotated context-free grammar over lexical categories.

Rule files hold one production per line::

    # sentence spine
    S(p,n) -> SNS(p,n,g) PRED(p,n)
    SNS(p,n,g) -> determiner(n,g) noun(n,g)

The first rule's head is the start symbol. Lowercase lexical category names
(noun, verb, ...) are terminals; every other symbol needs at least one rule.
Parenthesized variables express agreement links: within one rule, equal names
mean equal values. A variable's leading letter picks its axis (p person,
n number, g gender, t tense, m mood).

Recursion is bounded: no nonterminal may occur more than ``depth_limit``
times on any root-to-leaf path, which keeps enumeration finite.

All searches over the grammar go through one function, ``derive``: a
memoized top-down search that asks a caller-supplied fill for each
terminal's choices. ``enumerate_trees`` accepts every terminal,
``match_leaf_sequence`` matches one category per position, and the planner
fills terminals with keywords and inserted function words.
"""

import re
from dataclasses import dataclass

from .errors import CycleError, GrammarParseError, UndefinedSymbolError
from .features import LexicalCategory

TERMINALS = frozenset(cat.value for cat in LexicalCategory)

AXIS_FOR_PREFIX = {
    "p": "person",
    "n": "number",
    "g": "gender",
    "t": "tense",
    "m": "mood",
}

_SYMBOL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]*)\))?$")


@dataclass(frozen=True)
class SymbolRef:
    """One symbol occurrence in a rule, with its agreement variables."""

    name: str
    variables: tuple = ()

    @property
    def is_terminal(self):
        return self.name in TERMINALS


@dataclass(frozen=True)
class GrammarRule:
    head: SymbolRef
    body: tuple
    index: int

    def __str__(self):
        def fmt(ref):
            if ref.variables:
                return "%s(%s)" % (ref.name, ",".join(ref.variables))
            return ref.name

        return "%s -> %s" % (fmt(self.head), " ".join(fmt(ref) for ref in self.body))


@dataclass(frozen=True)
class TreeNode:
    """Derivation tree node; terminal leaves have no children.

    ``symbol`` is always the plain ``str`` name of the nonterminal or
    terminal category. Searches share subtrees and leaves between trees, so
    a leaf is identified by its position in ``leaf_sequence()``, never by
    object identity.
    """

    symbol: str
    children: tuple = ()
    rule_index: int = -1

    @property
    def is_leaf(self):
        return not self.children

    def leaf_sequence(self):
        if self.is_leaf:
            return (self.symbol,)
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node.symbol)
            else:
                stack.extend(reversed(node.children))
        return tuple(out)

    def __str__(self):
        if self.is_leaf:
            return self.symbol
        return "%s(%s)" % (self.symbol, " ".join(str(child) for child in self.children))


@dataclass
class Grammar:
    rules: tuple
    start: str
    depth_limit: int = 2

    def __post_init__(self):
        by_head = {}
        for rule in self.rules:
            by_head.setdefault(rule.head.name, []).append(rule)
        self.rules_for = by_head


def _parse_symbol(token, line_number):
    match = _SYMBOL_RE.match(token)
    if not match:
        raise GrammarParseError("cannot parse symbol %r" % token, line_number)
    name, raw_vars = match.group(1), match.group(2)
    variables = ()
    if raw_vars:
        variables = tuple(var.strip() for var in raw_vars.split(",") if var.strip())
        for var in variables:
            if var[0] not in AXIS_FOR_PREFIX:
                raise GrammarParseError(
                    "variable %r on %r has no axis prefix (p/n/g/t/m)" % (var, name),
                    line_number,
                )
    return SymbolRef(name=name, variables=variables)


def parse_grammar(text, depth_limit=2):
    rules = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise GrammarParseError("missing '->'", line_number)
        head_part, body_part = line.split("->", 1)
        head = _parse_symbol(head_part.strip(), line_number)
        if head.is_terminal:
            raise GrammarParseError(
                "terminal category %r cannot head a rule" % head.name, line_number
            )
        body_tokens = body_part.split()
        if not body_tokens:
            raise GrammarParseError("empty rule body", line_number)
        body = tuple(_parse_symbol(token, line_number) for token in body_tokens)
        rules.append(GrammarRule(head=head, body=body, index=len(rules)))
    if not rules:
        raise GrammarParseError("grammar has no rules")
    heads = {rule.head.name for rule in rules}
    for rule in rules:
        for ref in rule.body:
            if not ref.is_terminal and ref.name not in heads:
                raise UndefinedSymbolError(
                    "symbol %r has no rule and is not a lexical category" % ref.name
                )
    return Grammar(rules=tuple(rules), start=rules[0].head.name, depth_limit=depth_limit)


def load_grammar(path, depth_limit=2):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_grammar(handle.read(), depth_limit=depth_limit)


_LEAF_CACHE = {name: TreeNode(symbol=name) for name in TERMINALS}


def derive(grammar, fill, state=None):
    """Derivations of the start symbol, lazily, in deterministic DFS order.

    The package's one grammar search. Rules are tried in file order and
    rule bodies expand leftmost first. ``fill(name, parent_head,
    grandparent_head, state)`` returns the ``(payloads, new_state)`` choices
    for terminal ``name`` whose parent node is headed ``parent_head`` and
    grandparent ``grandparent_head`` (None above the root); a terminal with
    no choices cuts the branch. ``state`` threads left to right through the
    leaves and must be hashable.

    Returns an iterator of ``(tree, payloads, end_state)``, where
    ``payloads`` concatenates the leaves' payload tuples in leaf order. The
    derivations of each nonterminal below the start symbol are memoized on
    (symbol, parent head, state, path usage), the usage counting each
    nonterminal's occurrences on the path from the root; none may exceed
    ``grammar.depth_limit``. Memoized subtrees and leaves are shared between
    trees. The start symbol's derivations are streamed, never all held at
    once.
    """
    start_usage = tuple(int(name == grammar.start) for name in grammar.rules_for)
    return _Derivation(grammar, fill).derivations(grammar.start, None, state, start_usage)


class _Derivation:
    """One ``derive`` run: the fill and the memo, with no reference cycle.

    Plain methods instead of nested closures let the memo go as soon as the
    returned iterator does, without waiting for the cyclic garbage collector.
    """

    def __init__(self, grammar, fill):
        self.grammar = grammar
        self.fill = fill
        self.slots = {name: index for index, name in enumerate(grammar.rules_for)}
        self.memo = {}

    def expand(self, symbol, parent, grandparent, state, usage):
        """(node, payloads, end_state) choices for one body symbol."""
        if symbol in TERMINALS:
            leaf = _LEAF_CACHE[symbol]
            return [
                (leaf, payloads, end)
                for payloads, end in self.fill(symbol, parent, grandparent, state)
            ]
        slot = self.slots[symbol]
        count = usage[slot] + 1
        if count > self.grammar.depth_limit:
            return ()
        usage = usage[:slot] + (count,) + usage[slot + 1 :]
        key = (symbol, parent, state, usage)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = list(self.derivations(symbol, parent, state, usage))
        return found

    def derivations(self, symbol, parent, state, usage):
        for rule in self.grammar.rules_for[symbol]:
            for children, payloads, end in self.body(
                rule.body, 0, symbol, parent, state, usage, (), ()
            ):
                yield TreeNode(symbol, children, rule.index), payloads, end

    def body(self, refs, index, head, parent, state, usage, children, payloads):
        """Complete a rule body whose first ``index`` symbols are built."""
        choices = self.expand(refs[index].name, head, parent, state, usage)
        if index + 1 == len(refs):
            for node, more, end in choices:
                yield children + (node,), payloads + more, end
            return
        for node, more, middle in choices:
            yield from self.body(
                refs, index + 1, head, parent, middle, usage, children + (node,), payloads + more
            )


def _accept_any(name, parent, grandparent, state):
    return (((), state),)


def enumerate_trees(grammar):
    """Finite stream of derivation skeletons in deterministic DFS order.

    Order follows rule file order with leftmost expansion; no tree re-enters
    any nonterminal more than ``grammar.depth_limit`` times on one path.
    """
    for tree, _payloads, _state in derive(grammar, _accept_any):
        yield tree


def match_leaf_sequence(grammar, cats):
    """Trees whose leaf sequence equals ``cats`` exactly, in DFS order.

    Equivalent to filtering enumerate_trees() on the leaf sequence; the
    search state is the position in ``cats``.
    """
    if not cats:
        raise ValueError("empty category sequence")
    cats = tuple(cat.value if isinstance(cat, LexicalCategory) else cat for cat in cats)

    def fill(name, parent, grandparent, position):
        if position < len(cats) and cats[position] == name:
            return (((), position + 1),)
        return ()

    return [tree for tree, _payloads, end in derive(grammar, fill, 0) if end == len(cats)]


def propagate_features(grammar, tree, root_assignment):
    """Push a root axis valuation through the rule equations of ``tree``.

    Returns a list of (node, assignment) pairs in preorder, where assignment
    maps axis name to the propagated value (only linked axes appear). Used to
    check that equation-linked nodes always agree.
    """
    out = []

    def walk(node, assignment):
        out.append((node, dict(assignment)))
        if node.is_leaf or node.rule_index < 0:
            return
        rule = grammar.rules[node.rule_index]
        bindings = {}
        for var in rule.head.variables:
            axis = AXIS_FOR_PREFIX[var[0]]
            if axis in assignment:
                bindings[var] = assignment[axis]
        for ref, child in zip(rule.body, node.children):
            child_assignment = {}
            for var in ref.variables:
                if var in bindings:
                    child_assignment[AXIS_FOR_PREFIX[var[0]]] = bindings[var]
            walk(child, child_assignment)

    walk(tree, root_assignment)
    return out


def dfs_paths(root, adjacency):
    """Root-to-leaf paths of a rooted acyclic graph in DFS order.

    Children are followed in listed order with an explicit stack; each vertex
    is visited once (revisits through other parents are skipped). An edge
    back into the active path raises CycleError.
    """
    def children(node):
        return tuple(adjacency.get(node, ()))

    paths = []
    path = [root]
    on_path = {root}
    visited = {root}
    if not children(root):
        return [tuple(path)]
    iterators = [iter(children(root))]
    while iterators:
        try:
            nxt = next(iterators[-1])
        except StopIteration:
            iterators.pop()
            on_path.discard(path.pop())
            continue
        if nxt in on_path:
            raise CycleError("cycle through %r" % (nxt,))
        if nxt in visited:
            continue
        visited.add(nxt)
        kids = children(nxt)
        if not kids:
            paths.append(tuple(path) + (nxt,))
            continue
        path.append(nxt)
        on_path.add(nxt)
        iterators.append(iter(kids))
    return paths
