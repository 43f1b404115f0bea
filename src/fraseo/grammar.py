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
times on any root-to-leaf path, which keeps enumeration finite. The bound
is compiled into the grammar table (Nederhof 2000, "Practical Experiments
with Regular Approximation of Context-Free Languages"): a compiled symbol
is a name with the usage counts of its path, and a rule that would pass the
limit is dead for it, so the compiled symbols form a DAG and no search
counts a path at run time.

All searches over the grammar go through one function, ``derive``: a
memoized top-down search that asks a caller-supplied fill for each
terminal's choices. Each choice becomes a leaf that carries the fill's
payload, so a derivation is one tree and nothing is kept beside it.
``enumerate_trees`` accepts every terminal with no payload, and the
planner fills terminals with keywords and inserted function words. Every
step of the search is memoized (Norvig 1991, "Techniques for Automatic
Memoization with Applications to Context-Free Parsing"), for one run: a
nonterminal's derivations on (compiled symbol, parent, state), and a
terminal's fill on its own arguments, (name, parent, grandparent, state).
So a fill must return the same choices whenever it is called with the same
arguments.

A search over an input takes it as masks, per token the categories it
reads as, and is bounded by it (Kay 1996, "Chart Generation"): it yields
only the derivations that consume every token, and ``covers`` first
checks that some can, exactly under the depth limit. ``Grammar.table``
compiles the rules once per set of insertable terminals into the one form
that the search and ``covers`` both read: each compiled symbol's live
rules left-factored into a prefix tree, built the first time a search or
``covers`` reaches the symbol, so a body prefix that several rules share
(every bundled ``PRED`` rule starts with ``verb``) is walked once, not
once per rule. Each branch holds a body symbol, its compiled child, and
for the symbol and for the body suffixes that start at it the fewest input
tokens they must consume and the FIRST set (Aho, Sethi & Ullman) of
categories that can consume their first token, as a mask of
``TERMINAL_BITS``. Terminals the caller may insert without input count as
consuming none and are transparent for FIRST. The values are computed
per plain name, over the grammar without the depth limit, which only
removes derivations, so the counts are lower bounds and the FIRST sets
supersets: a suffix they rule out has no derivation, and cutting it
changes no result. The search tests a suffix before it expands its first
symbol, and ``covers`` tries a nonterminal that must consume a token only
at positions whose token reads as a category in its FIRST set. Without an
input the search cuts nothing. ``covers`` has one goal, the end of the
input, which passes down each rule's last symbol: it seeks that symbol's
way to the goal and stops at the first rule that gets there, and it
collects every end only of a symbol with more of its rule after it.

The search builds a nonterminal's memoized derivations by one walk over
its tree, collecting each rule's derivations apart and joining them in
file order, so the order is that of completing each rule alone. The
start symbol's derivations are not memoized: an unbounded search such as
``enumerate_trees`` yields too many trees to hold at once. Its tree is
one unshared chain per rule, in file order, which a generator walks, so
they stream rule by rule.
"""

import math
import re

from .errors import CycleError, GrammarParseError, UndefinedSymbolError
from .features import LexicalCategory, Value
from .fileio import read_text

TERMINALS = frozenset(cat.value for cat in LexicalCategory)
# One bit per terminal: FIRST sets and token category sets are masks.
TERMINAL_BITS = {cat.value: 1 << index for index, cat in enumerate(LexicalCategory)}

# Leading letters an agreement variable may start with; checked, never read.
_VARIABLE_PREFIXES = "pngtm"

_SYMBOL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]*)\))?$")


class GrammarRule(Value):
    """One production: head name, body names and the line it was read from."""

    __slots__ = ("head", "body", "line")

    def __str__(self):
        return "%s -> %s" % (self.head, " ".join(self.body))


class TreeNode(Value):
    """Derivation tree node; terminal leaves have no children.

    ``symbol`` is always the plain ``str`` name of the nonterminal or
    terminal category. ``payload`` is what a search's fill chose for a
    leaf, such as the planner's SlotFill, and None on a nonterminal and on
    an ``enumerate_trees`` leaf. Searches share subtrees and leaves between
    trees, so a leaf is identified by its position in ``leaf_sequence()``,
    never by object identity.
    """

    __slots__ = ("symbol", "children", "payload")
    _defaults = {"children": (), "payload": None}

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
    """Rules in file order and the search's depth limit.

    ``_derive`` sets the rest: ``start``, the first rule's head;
    ``rules_for``, each head's rules in file order; and an empty cache of
    ``table``'s compiled tables. A ``replaced`` copy derives them afresh.
    """

    _fields = ("rules", "depth_limit")
    __slots__ = _fields + ("start", "rules_for", "_tables")
    _defaults = {"depth_limit": 2}

    def _derive(self):
        self.start = self.rules[0].head
        self.rules_for = {}
        for rule in self.rules:
            self.rules_for.setdefault(rule.head, []).append(rule)
        self._tables = {}

    def table(self, insertable):
        """The ``GrammarTable`` for ``insertable``, built once and kept.

        ``insertable`` is the frozenset of terminal names a search may fill
        without consuming a token.
        """
        table = self._tables.get(insertable)
        if table is None:
            table = self._tables[insertable] = _compile(self, insertable)
        return table


class GrammarTable(dict):
    """The rules compiled for one set of insertable terminals, under the depth limit.

    A compiled symbol is ``(name, usage)``, ``usage`` counting each
    nonterminal's occurrences on the path from the root, this one included,
    in ``grammar.rules_for`` order; ``start`` is the start symbol's. The
    table maps a compiled symbol to the branches of its prefix tree, built
    the first time a search or ``covers`` reads it (``__missing__``), so it
    never holds more symbols than they reach. A rule with a body
    nonterminal whose count would pass ``depth_limit`` is dead for the
    symbol and left out; every other body nonterminal's count goes up by
    one, so the compiled symbols form a DAG.

    The live rules are left-factored (Moore 2000, "Improved Left-Corner
    Chart Parsing for Large Context-Free Grammars"): rules whose bodies
    start alike share the branches of that prefix, so a search expands a
    shared prefix once for all of them. The start symbol's tree is instead
    one unshared chain per rule, in file order, which its stream completes
    rule by rule. A branch is ``(name, child, need, first, rest_need,
    rest_first, ends, after)``. ``child`` is the body nonterminal's compiled
    symbol, None for a terminal. ``need`` is the fewest input tokens any
    derivation of the symbol consumes and ``first`` the ``TERMINAL_BITS``
    mask of the terminals that can consume its first token; ``rest_need``
    and ``rest_first`` are the least need and the union of FIRST over the
    body suffixes that start at the branch, one per live rule through it.
    ``ends`` holds the indices into ``grammar.rules_for[head]`` of the rules
    that end with the branch and ``after`` its child branches.

    A terminal in the insertable set may take no token: it counts as 0 and
    FIRST looks past it. The values are per plain name and ignore
    ``depth_limit``, so they bound every derivation the search can make,
    and a branch's suffix bound admits every suffix that one of its rules'
    bounds admits, so it cuts only what all of them cut. ``unions`` pairs
    each distinct ``first`` of the rows that is not a single terminal bit
    with the bits it holds.
    """

    __slots__ = ("names", "rows", "depth_limit", "start", "unions")

    def __init__(self, names, rows, depth_limit, start, unions):
        super().__init__()
        self.names = names
        self.rows = rows
        self.depth_limit = depth_limit
        self.start = start
        self.unions = unions

    def __missing__(self, symbol):
        head, usage = symbol
        children = {
            name: (name, tuple(used + (other == name) for other, used in zip(self.names, usage)))
            for name, count in zip(self.names, usage)
            if count < self.depth_limit
        }
        rows = {
            rule: tuple((cell[0], children.get(cell[0])) + cell[1:] for cell in row)
            for rule, row in enumerate(self.rows[head])
            if all(cell[0] in TERMINALS or cell[0] in children for cell in row)
        }
        if head == self.start[0]:  # streamed rule by rule: one chain per rule
            branches = self[symbol] = sum((_factor(rows, [rule]) for rule in rows), ())
        else:
            branches = self[symbol] = _factor(rows, rows)
        return branches


def _factor(rows, rules, depth=0):
    """The prefix-tree branches below ``depth`` of the ``rules`` keys of ``rows``.

    ``rows`` holds one row per live rule, and a row one cell per body
    symbol: ``(name, child, need, first, rest_need, rest_first)``.
    """
    groups = {}
    for rule in rules:
        if len(rows[rule]) > depth:
            groups.setdefault(rows[rule][depth][0], []).append(rule)
    branches = []
    for group in groups.values():
        cells = [rows[rule][depth] for rule in group]
        rest_first = 0
        for cell in cells:
            rest_first |= cell[5]
        branches.append(cells[0][:4] + (
            min(cell[4] for cell in cells),
            rest_first,
            tuple(rule for rule in group if len(rows[rule]) == depth + 1),
            _factor(rows, group, depth + 1),
        ))
    return tuple(branches)


def _compile(grammar, insertable):
    """The ``GrammarTable`` of ``insertable``: each head's rows, bounded by fixpoint over the rules.

    A row holds a cell ``(name, need, first, rest_need, rest_first)`` per
    body symbol; the table turns them into compiled branches on demand.
    """
    least = dict.fromkeys(grammar.rules_for, math.inf)
    first = dict.fromkeys(grammar.rules_for, 0)

    def bound(name):
        if name in TERMINALS:
            return (0 if name in insertable else 1), TERMINAL_BITS[name]
        return least[name], first[name]

    def suffixes(body):
        out = [(0, 0)]
        for name in reversed(body):
            need, cats = bound(name)
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
    rows = {
        head: [
            tuple((name,) + bound(name) + rest for name, rest in zip(body, suffixes(body)))
            for body in (rule.body for rule in rules)
        ]
        for head, rules in grammar.rules_for.items()
    }
    firsts = {cell[2] for head_rows in rows.values() for row in head_rows for cell in row}
    bits = TERMINAL_BITS.values()
    unions = tuple(
        (mask, tuple(bit for bit in bits if mask & bit)) for mask in sorted(firsts - set(bits))
    )
    names = tuple(grammar.rules_for)
    start = (grammar.start, tuple(int(name == grammar.start) for name in names))
    return GrammarTable(names, rows, grammar.depth_limit, start, unions)


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


def parse_grammar(text):
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
    return Grammar(rules=tuple(rules))


def load_grammar(path):
    """Parse the grammar file at ``path``; a parse error names the file."""
    text = read_text(path, GrammarParseError)
    try:
        return parse_grammar(text)
    except GrammarParseError as exc:
        raise type(exc)(exc.reason, exc.line, path) from None


def derive(grammar, fill, state=None, masks=None, insertable=frozenset()):
    """Derivations of the start symbol, lazily, in deterministic DFS order.

    The package's one grammar search. Rules are tried in file order and
    rule bodies expand leftmost first. ``fill(name, parent_head,
    grandparent_head, state)`` returns the ``(payload, new_state)`` choices
    for terminal ``name`` whose parent node is headed ``parent_head`` and
    grandparent ``grandparent_head`` (None above the root); a terminal with
    no choices cuts the branch. ``state`` threads left to right through the
    leaves and must be hashable.

    Returns an iterator of ``(tree, end_state)``. Each leaf of ``tree``
    holds its choice's payload, so the tree is the derivation's one
    record. No nonterminal occurs more than ``grammar.depth_limit`` times
    on a path from the root: the search walks the compiled symbols of
    ``grammar.table(insertable)``, whose rules that would pass the limit are
    dead. The derivations of each nonterminal below the start symbol are
    memoized on (compiled symbol, parent head, state). A terminal's choices
    are memoized on the fill's own arguments, (name, parent head,
    grandparent head, state), so ``fill`` is called at most once per
    distinct arguments in a run and must return the same choices for the
    same arguments. Memoized subtrees and leaves, one leaf per choice, are
    shared between trees. A memoized nonterminal's list comes from one walk
    over its compiled symbol's prefix tree, which expands a shared body
    prefix once and keeps each rule's derivations apart, joined in file
    order. The start symbol's derivations are streamed from its tree of one
    chain per rule, never all held at once: an unbounded search can yield
    tens of thousands of trees.

    A search over an input passes ``masks``, per token the ``TERMINAL_BITS``
    mask of the categories it reads as, and ``insertable``, the terminals
    its fill may choose without consuming a token; every other terminal
    consumes one. ``state[0]`` is then the token position, and only the
    derivations that end at ``len(masks)`` are yielded. When ``covers``
    rejects the masks from ``state[0]`` on, the search returns before any
    other work. Otherwise it cuts each rule body suffix that needs more
    tokens than are left, or needs one and cannot start with the pending
    token, by the prefix-tree branches of ``grammar.table(insertable)``: a
    branch's suffix is tested before its symbol is expanded, so no symbol
    of a cut suffix is expanded. A branch's bound cuts a suffix only when
    every rule through the branch would; the start symbol's chains hold
    each rule's own bound. Such a suffix has no derivation, so the order is
    that of the search without ``masks``, and the memo stays exact because
    a cut depends only on the suffix and the state. No root derivation that
    ends before the last token is built. With ``masks`` None nothing is
    cut. A masked search needs a start: without ``state``, or with a
    ``state[0]`` outside ``0..len(masks)``, it raises ValueError.
    """
    if masks is not None and (state is None or not 0 <= state[0] <= len(masks)):
        raise ValueError(
            "a masked search needs a start state whose state[0], the token position,"
            " lies in 0..%d: got %r" % (len(masks), state)
        )
    if masks is not None and not covers(grammar, masks[state[0]:], insertable):
        return iter(())
    search = _Derivation(grammar, fill, masks, insertable)
    return search.stream(search.table[search.table.start], grammar.start, state, ())


class _Derivation:
    """One ``derive`` run: the fill, the input bounds and the memo, with no reference cycle.

    Plain methods instead of nested closures let the memo go as soon as the
    returned iterator does, without waiting for the cyclic garbage collector.
    ``pending[pos]`` is (tokens left, mask of token ``pos`` or 0) and ``last``
    the input's length, both None without input.
    """

    def __init__(self, grammar, fill, masks, insertable):
        self.rules_for = grammar.rules_for
        self.fill = fill
        self.pending = self.last = None
        if masks is not None:
            self.pending = [(len(masks) - pos, mask) for pos, mask in enumerate([*masks, 0])]
            self.last = len(masks)
        self.table = grammar.table(insertable)
        self.memo = {}

    def expand(self, name, symbol, parent, grandparent, state):
        """(node, end_state) choices for one body symbol, memoized.

        ``symbol`` is a nonterminal's compiled symbol, None for a terminal.
        A terminal's key is (name, parent, grandparent, state), the fill's
        arguments, and each of its choices is a leaf of its own; a
        nonterminal's is (compiled symbol, parent, state). The two cannot
        collide, because they differ in length. A nonterminal's list is
        ``walk``'s per-rule buckets joined in file order.
        """
        if symbol is None:
            key = (name, parent, grandparent, state)
            found = self.memo.get(key)
            if found is None:
                found = self.memo[key] = [
                    (TreeNode(name, (), payload), end)
                    for payload, end in self.fill(name, parent, grandparent, state)
                ]
            return found
        key = (symbol, parent, state)
        found = self.memo.get(key)
        if found is None:
            buckets = [[] for _ in self.rules_for[name]]
            self.walk(self.table[symbol], name, parent, state, (), buckets)
            found = self.memo[key] = [item for bucket in buckets for item in bucket]
        return found

    def walk(self, branches, head, parent, state, children, buckets):
        """Complete every rule body below one prefix-tree node into ``buckets``.

        ``children`` is the prefix built so far, which ends at ``state``.
        A branch whose suffix the input left at ``state`` cannot fill is
        skipped before its symbol is expanded. Each finished rule goes to
        its own bucket, ``buckets[rule]``, in DFS order.
        """
        pending = self.pending
        for name, child, _need, _first, need, first, ends, after in branches:
            if need and pending:
                left, cats = pending[state[0]]
                if need > left or not cats & first:
                    continue
            for node, end in self.expand(name, child, head, parent, state):
                built = children + (node,)
                for rule in ends:
                    buckets[rule].append((TreeNode(head, built), end))
                if after:
                    self.walk(after, head, parent, end, built, buckets)

    def stream(self, branches, head, state, children):
        """The start symbol's derivations below one branch node, streamed, never held.

        The same walk as ``walk`` for the root, whose parent is None, but a
        generator: the start symbol's tree is one chain per rule in file
        order, so the stream is that of completing each rule alone. A
        derivation is built only once it ends at ``last``: the root
        consumes every token.
        """
        pending, last = self.pending, self.last
        for name, child, _need, _first, need, first, ends, after in branches:
            if need and pending:
                left, cats = pending[state[0]]
                if need > left or not cats & first:
                    continue
            for node, end in self.expand(name, child, head, None, state):
                if ends and (last is None or end[0] == last):
                    yield TreeNode(head, children + (node,)), end
                if after:
                    yield from self.stream(after, head, end, children + (node,))


def _accept_any(name, parent, grandparent, state):
    return ((None, state),)


def enumerate_trees(grammar):
    """Finite stream of derivation skeletons in deterministic DFS order.

    Order follows rule file order with leftmost expansion; no tree re-enters
    any nonterminal more than ``grammar.depth_limit`` times on one path.
    """
    for tree, _state in derive(grammar, _accept_any):
        yield tree


def covers(grammar, masks, insertable):
    """Whether a derivation of the start symbol can consume every input token.

    ``masks`` holds, per token, the ``TERMINAL_BITS`` mask of the categories
    it reads as. The check relaxes the search only in its fill: a terminal
    consumes one token that reads as it or, when it is in ``insertable``,
    no token. It keeps ``depth_limit``, so it is exact: ``True`` exactly
    when some ``derive`` run over these tokens, with a fill that takes any
    such choice, ends at the last token, and ``False`` proves that no run
    whose fill inserts only ``insertable`` terminals does.

    One memoized recursion over (compiled symbol, start positions) pairs,
    the start positions and the end positions they reach each an int
    bitset, so a set of positions steps through a rule body at once: a
    terminal shifts it (Baeza-Yates & Gonnet 1992, "A New Approach to Text
    Searching") and a nonterminal takes it in one pair. A pair walks its
    compiled symbol's prefix tree once, so a body prefix that several rules
    share is matched once for all of them. A nonterminal that must consume
    a token is tried only from positions whose token reads as a terminal in
    its FIRST set: from any other it reaches no end. The compiled symbols
    form a DAG, so no pair is read while it is being computed, even under
    left recursion, and one pass ends with the exact answer.

    The walk is goal-directed: the one end that matters is ``len(masks)``,
    and it passes down the right spine. A body symbol that ends a rule and
    has no symbol after it inherits that goal, so the walk stops at the
    first rule that reaches it (``_GoalReached``) instead of collecting
    every end. A body symbol with more after it still takes its full set of
    ends, for the rest of the body to start from. A rejected input walks
    exactly the pairs of the full chart, with no more lookups or calls per
    pair.
    """
    goal = 1 << len(masks)
    cover = _Cover(grammar.table(insertable), masks)
    try:
        cover.ends(cover.table.start, 1, goal)
    except _GoalReached:
        return True
    return False


class _GoalReached(Exception):
    """The ``covers`` walk found a rule on the right spine that ends at the goal."""


class _Cover:
    """One ``covers`` chart over (compiled symbol, start positions) pairs.

    ``admit`` maps each FIRST mask of the table to the positions of the
    tokens that read as a terminal in it. Plain methods, so the chart
    leaves no reference cycle.
    """

    def __init__(self, table, masks):
        self.table = table
        # For a terminal's own bit, the tokens that read as that terminal.
        admit = self.admit = dict.fromkeys(TERMINAL_BITS.values(), 0)
        for pos, mask in enumerate(masks):
            while mask:
                bit = mask & -mask
                admit[bit] |= 1 << pos
                mask ^= bit
        for first, bits in table.unions:
            positions = 0
            for bit in bits:
                positions |= admit[bit]
            admit[first] = positions
        self.memo = {}

    def ends(self, symbol, starts, goal=0):
        """The end positions ``symbol`` reaches from any position of the bitset ``starts``.

        Given a ``goal`` position bit, raises ``_GoalReached`` at the first
        rule that ends there, so the walk stops and ``memo`` holds only full
        sets of ends.
        """
        key = (symbol, starts)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = self.reach(self.table[symbol], starts, goal)
        return found

    def reach(self, branches, reached, goal):
        """The end positions of the rule bodies below ``branches``, from the bitset ``reached``.

        A rule's last symbol is sought for ``goal``; a symbol with more of
        its rule after it gets its full set of ends.
        """
        found = 0
        admit = self.admit
        for _name, child, need, first, _rest_need, _rest_first, ends, after in branches:
            if child is None:
                out = (0 if need else reached) | (reached & admit[first]) << 1
            else:
                starts = reached & admit[first] if need else reached
                out = self.ends(child, starts, 0 if after else goal) if starts else 0
            if out:
                if ends:
                    if out & goal:
                        raise _GoalReached
                    found |= out
                if after:
                    found |= self.reach(after, out, goal)
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
