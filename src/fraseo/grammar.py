"""Context-free grammar over lexical categories.

Rule files hold one production per line::

    # sentence spine
    S(p,n) -> SNS(p,n,g) PRED(p,n)
    SNS(p,n,g) -> determiner(n,g) noun(n,g)

The first rule's head is the start symbol. Lowercase lexical category names
(noun, verb, ...) are terminals; every other symbol needs at least one rule.
Parenthesized agreement variables are annotations: the parser checks that
each starts with an axis letter (p person, n number, g gender, t tense,
m mood) and drops them. A rule keeps only symbol names, and generation takes
agreement from the phrase names the planner interprets.

Recursion is bounded: no nonterminal may occur more than ``depth_limit``
times on any root-to-leaf path, which keeps enumeration finite.

All searches over the grammar go through one function, ``derive``: a
memoized top-down search that asks a caller-supplied fill for each
terminal's choices. ``enumerate_trees`` accepts every terminal,
``match_leaf_sequence`` matches one category per position, and the planner
fills terminals with keywords and inserted function words.

A search over an input can prune with lookahead (FIRST sets as in Aho,
Sethi & Ullman; bounding generation by the input as in Kay 1996, "Chart
Generation"). ``Grammar.suffix_bounds`` gives, for every rule body suffix,
the fewest input tokens it must consume and the FIRST set of categories
that can consume its first token, as a mask of ``TERMINAL_BITS``. Terminals
the caller may insert without input count as consuming none and are
transparent for FIRST. Both tables are computed over the grammar without
the depth limit, which only removes derivations, so the first is a lower
bound and the second a superset: a suffix they rule out has no derivation,
and cutting it changes no result. A search without a lookahead cuts
nothing, which makes it the unpruned reference the pruned one must equal.

Before a search the planner asks ``covers`` whether the whole input can be
consumed at all, under the same relaxation: insertable terminals may take
no token and the depth limit is ignored. When it cannot, the search would
find nothing, and the planner skips it.
"""

import math
import re

from .errors import CycleError, GrammarParseError, UndefinedSymbolError
from .features import LexicalCategory, Value

TERMINALS = frozenset(cat.value for cat in LexicalCategory)
# One bit per terminal: FIRST sets and lookahead category sets are masks.
TERMINAL_BITS = {cat.value: 1 << index for index, cat in enumerate(LexicalCategory)}

# Leading letters an agreement variable may start with; checked, never read.
_VARIABLE_PREFIXES = "pngtm"

_SYMBOL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]*)\))?$")


class GrammarRule(Value):
    """One production: head name, body names and the line it was read from."""

    __slots__ = ("head", "body", "line")

    def __init__(self, head, body, line):
        self.head = head
        self.body = body
        self.line = line

    def __str__(self):
        return "%s -> %s" % (self.head, " ".join(self.body))


class TreeNode(Value):
    """Derivation tree node; terminal leaves have no children.

    ``symbol`` is always the plain ``str`` name of the nonterminal or
    terminal category. Searches share subtrees and leaves between trees, so
    a leaf is identified by its position in ``leaf_sequence()``, never by
    object identity.
    """

    __slots__ = ("symbol", "children")

    def __init__(self, symbol, children=()):
        self.symbol = symbol
        self.children = children

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


class Grammar(Value):
    _fields = ("rules", "start", "depth_limit")
    __slots__ = _fields + ("rules_for", "_bounds", "_cover_rules")

    def __init__(self, rules, start, depth_limit=2):
        self.rules = rules
        self.start = start
        self.depth_limit = depth_limit
        by_head = {}
        for rule in rules:
            by_head.setdefault(rule.head, []).append(rule)
        self.rules_for = by_head
        self._bounds = {}
        self._cover_rules = {}

    def suffix_bounds(self, insertable):
        """``{body: ((min_tokens, first), ...)}``, one pair per body index.

        For the suffix ``body[index:]`` of every rule body, ``min_tokens``
        is the fewest input tokens any derivation of it consumes and
        ``first`` the ``TERMINAL_BITS`` mask of the terminals that can
        consume its first token. Terminals in ``insertable`` (a frozenset of
        names) may take no token: they count as 0 and FIRST looks past
        them. The tables ignore ``depth_limit``, so they bound every
        derivation the search can make. Built once per ``insertable`` and
        kept.
        """
        bounds = self._bounds.get(insertable)
        if bounds is None:
            bounds = self._bounds[insertable] = _suffix_bounds(self, insertable)
        return bounds

    def cover_rules(self, insertable):
        """``{head: bodies}`` for ``covers``, built once per ``insertable`` and kept.

        Each body symbol becomes ``(name, 0, False)`` for a nonterminal and
        ``(None, bit, skip)`` for a terminal, ``bit`` its ``TERMINAL_BITS``
        entry and ``skip`` whether it is in ``insertable``.
        """
        rules = self._cover_rules.get(insertable)
        if rules is None:
            rules = self._cover_rules[insertable] = {
                head: tuple(
                    tuple(
                        (None, TERMINAL_BITS[name], name in insertable)
                        if name in TERMINALS else (name, 0, False)
                        for name in rule.body
                    )
                    for rule in rules
                )
                for head, rules in self.rules_for.items()
            }
        return rules


def _suffix_bounds(grammar, insertable):
    """The ``Grammar.suffix_bounds`` tables, by fixpoint over the rules."""
    least = dict.fromkeys(grammar.rules_for, math.inf)
    first = dict.fromkeys(grammar.rules_for, 0)

    def suffixes(body):
        out = [(0, 0)]
        for name in reversed(body):
            if name in TERMINALS:
                need, cats = (0 if name in insertable else 1), TERMINAL_BITS[name]
            else:
                need, cats = least[name], first[name]
            after_need, after_cats = out[-1]
            out.append((need + after_need, cats | after_cats if need == 0 else cats))
        return tuple(reversed(out[1:]))

    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            need, cats = suffixes(rule.body)[0]
            if need < least[rule.head] or cats & ~first[rule.head]:
                least[rule.head] = min(need, least[rule.head])
                first[rule.head] |= cats
                changed = True
    return {rule.body: suffixes(rule.body) for rule in grammar.rules}


def _parse_symbol(token, line_number):
    """The symbol name of ``token``, after checking its variable syntax."""
    match = _SYMBOL_RE.match(token)
    if not match:
        raise GrammarParseError("cannot parse symbol %r" % token, line_number)
    name, raw_vars = match.group(1), match.group(2)
    for var in (raw_vars or "").split(","):
        var = var.strip()
        if var and var[0] not in _VARIABLE_PREFIXES:
            raise GrammarParseError(
                "variable %r on %r has no axis prefix (p/n/g/t/m)" % (var, name),
                line_number,
            )
    return name


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
        if head in TERMINALS:
            raise GrammarParseError(
                "terminal category %r cannot head a rule" % head, line_number
            )
        body_tokens = body_part.split()
        if not body_tokens:
            raise GrammarParseError("empty rule body", line_number)
        body = tuple(_parse_symbol(token, line_number) for token in body_tokens)
        rules.append(GrammarRule(head=head, body=body, line=line_number))
    if not rules:
        raise GrammarParseError("grammar has no rules")
    heads = {rule.head for rule in rules}
    for rule in rules:
        for name in rule.body:
            if name not in TERMINALS and name not in heads:
                raise UndefinedSymbolError(
                    "symbol %r has no rule and is not a lexical category" % name, rule.line
                )
    return Grammar(rules=tuple(rules), start=rules[0].head, depth_limit=depth_limit)


def load_grammar(path, depth_limit=2):
    """Parse the grammar file at ``path``; a parse error names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_grammar(text, depth_limit=depth_limit)
    except GrammarParseError as exc:
        raise type(exc)("%s: %s" % (path, exc.reason), exc.line) from None


_LEAF_CACHE = {name: TreeNode(symbol=name) for name in TERMINALS}


def derive(grammar, fill, state=None, lookahead=None, insertable=frozenset()):
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

    A fill that consumes input may pass ``lookahead(state)``, returning
    (tokens left, ``TERMINAL_BITS`` mask of the categories the pending
    token reads as, 0 when no token is left), with ``insertable``, the
    frozenset of terminal names its fill can choose without consuming a
    token; every other terminal must consume exactly one. Before expanding
    a rule body suffix the search reads its
    ``grammar.suffix_bounds(insertable)`` entry and cuts the suffix when it
    needs more tokens than are left, or needs at least one and the pending
    token reads as no category in its FIRST set. Such a
    suffix has no derivation, so the stream is the same as without
    lookahead, in the same order, and the memo stays exact because a cut
    depends only on the suffix and the state. With ``lookahead`` None
    nothing is cut.
    """
    start_usage = tuple(int(name == grammar.start) for name in grammar.rules_for)
    search = _Derivation(grammar, fill, lookahead, insertable)
    return search.derivations(grammar.start, None, state, start_usage)


class _Derivation:
    """One ``derive`` run: the fill, the lookahead and the memo, with no reference cycle.

    Plain methods instead of nested closures let the memo go as soon as the
    returned iterator does, without waiting for the cyclic garbage collector.
    """

    def __init__(self, grammar, fill, lookahead, insertable):
        self.grammar = grammar
        self.fill = fill
        self.lookahead = lookahead
        self.bounds = grammar.suffix_bounds(insertable)
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
                yield TreeNode(symbol, children), payloads, end

    def body(self, names, index, head, parent, state, usage, children, payloads):
        """Complete a rule body whose first ``index`` symbols are built.

        With a lookahead, a suffix the input left cannot fill yields nothing.
        """
        need, first = self.bounds[names][index]
        if need and self.lookahead:
            left, pending = self.lookahead(state)
            if need > left or not pending & first:
                return
        choices = self.expand(names[index], head, parent, state, usage)
        if index + 1 == len(names):
            for node, more, end in choices:
                yield children + (node,), payloads + more, end
            return
        for node, more, middle in choices:
            yield from self.body(
                names, index + 1, head, parent, middle, usage, children + (node,), payloads + more
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
    search state is the position in ``cats``. Every leaf consumes exactly
    one category, so the search prunes with a lookahead and no insertables.
    """
    if not cats:
        raise ValueError("empty category sequence")
    cats = tuple(cat.value if isinstance(cat, LexicalCategory) else cat for cat in cats)
    masks = tuple(TERMINAL_BITS.get(cat, 0) for cat in cats) + (0,)

    def fill(name, parent, grandparent, position):
        if position < len(cats) and cats[position] == name:
            return (((), position + 1),)
        return ()

    def lookahead(position):
        return len(cats) - position, masks[position]

    found = derive(grammar, fill, 0, lookahead)
    return [tree for tree, _payloads, end in found if end == len(cats)]


def covers(grammar, masks, insertable):
    """Whether a derivation of the start symbol can consume every input token.

    ``masks`` holds, per token, the ``TERMINAL_BITS`` mask of the categories
    it reads as. The check relaxes the search as ``suffix_bounds`` does: a
    terminal consumes one token that reads as it or, when it is in
    ``insertable``, no token, and ``depth_limit`` is ignored. So ``False``
    proves that no ``derive`` run over these tokens, with a fill that
    inserts only ``insertable`` terminals, ends at the last token.

    A memoized recognizer over (symbol, start position) pairs, each holding
    the end positions it reaches as an int bitset. A pair read while it is
    being computed (left recursion) gives the previous pass's ends, none at
    first, and passes repeat until no pair changes: the least fixpoint, so
    the answer is exact for the relaxed grammar.
    """
    rules = grammar.cover_rules(insertable)
    seeds = {}
    while True:
        chart = _Cover(rules, masks, seeds)
        reached = chart.ends(grammar.start, 0)
        if not chart.looped or chart.memo == seeds:
            return bool(reached >> len(masks) & 1)
        seeds = chart.memo


class _Cover:
    """One ``covers`` pass: plain methods, so the chart leaves no reference cycle."""

    def __init__(self, rules, masks, seeds):
        self.rules = rules
        # Per terminal bit, the positions of the tokens that read as it.
        self.fits = dict.fromkeys(TERMINAL_BITS.values(), 0)
        for pos, mask in enumerate(masks):
            while mask:
                bit = mask & -mask
                self.fits[bit] |= 1 << pos
                mask ^= bit
        self.seeds = seeds
        self.memo = {}
        self.looped = False

    def ends(self, symbol, start):
        """The end positions ``symbol`` reaches from ``start``, as a bitset."""
        key = (symbol, start)
        found = self.memo.get(key)
        if found is None:
            self.memo[key] = -1  # being computed
            found = 0
            for body in self.rules[symbol]:
                reached = 1 << start
                for name, bit, skip in body:
                    if name is None:
                        reached = (reached if skip else 0) | (reached & self.fits[bit]) << 1
                    else:
                        starts, reached = reached, 0
                        while starts:
                            low = starts & -starts
                            reached |= self.ends(name, low.bit_length() - 1)
                            starts ^= low
                    if not reached:
                        break
                found |= reached
            self.memo[key] = found
        elif found < 0:
            self.looped = True
            found = self.seeds.get(key, 0)
        return found


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
