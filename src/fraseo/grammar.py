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
terminal's choices. ``enumerate_trees`` accepts every terminal, and the
planner fills terminals with keywords and inserted function words. Every
step of the search is memoized (Norvig 1991, "Techniques for Automatic
Memoization with Applications to Context-Free Parsing"), for one run: a
nonterminal's derivations on (symbol, parent, state, path usage), and a
terminal's fill on its own arguments, (name, parent, grandparent, state).
So a fill must return the same choices whenever it is called with the same
arguments.

A search over an input takes it as masks, per token the categories it
reads as, and is bounded by it (Kay 1996, "Chart Generation"): it yields
only the derivations that consume every token, and ``covers`` first
checks that some can. ``Grammar.table`` compiles the rules once per set
of insertable terminals into one table that the search and ``covers``
both read: per rule body symbol, its usage slot, and for the symbol and
for the body suffix that starts at it the fewest input tokens it must
consume and the FIRST set (Aho, Sethi & Ullman) of categories that can
consume its first token, as a mask of ``TERMINAL_BITS``. Terminals the
caller may insert without input count as consuming none and are
transparent for FIRST. The values are computed over the grammar without
the depth limit, which only removes derivations, so the counts are lower
bounds and the FIRST sets supersets: a suffix they rule out has no
derivation, and cutting it changes no result. The search tests a suffix
before it expands its first symbol, and ``covers`` tries a nonterminal
that must consume a token only at positions whose token reads as a
category in its FIRST set. Without an input the search cuts nothing.

The table also holds each nonterminal's rules left-factored into a
prefix tree. The search builds a nonterminal's memoized derivations by
one walk over that tree, so a body prefix that several rules share (every
bundled ``PRED`` rule starts with ``verb``) is expanded once, not once per
rule. Each rule's derivations are collected apart and joined in file
order, so the order is that of completing each rule alone. The start
symbol's derivations are not memoized: they stream rule by rule, because
an unbounded search such as ``enumerate_trees`` yields too many trees to
hold at once.
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
    terminal category. Searches share subtrees and leaves between trees, so
    a leaf is identified by its position in ``leaf_sequence()``, never by
    object identity.
    """

    __slots__ = ("symbol", "children")
    _defaults = {"children": ()}

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


class GrammarTable:
    """The rules compiled for one set of insertable terminals.

    ``rows[head]`` holds one row per rule of ``head``, in file order, and a
    row one cell per body symbol: ``(name, slot, need, first, rest_need,
    rest_first)``. ``slot`` is the nonterminal's index in the usage tuple of
    ``derive``, None for a terminal. ``need`` is the fewest input tokens any
    derivation of the symbol consumes and ``first`` the ``TERMINAL_BITS``
    mask of the terminals that can consume its first token; ``rest_need``
    and ``rest_first`` are the same for the body suffix that starts at the
    symbol. A terminal in the insertable set may take no token: it counts
    as 0 and FIRST looks past it. The values ignore ``depth_limit``, so
    they bound every derivation the search can make. ``unions`` pairs each
    distinct ``first`` of the cells that is not a single terminal bit with
    the bits it holds.

    ``prefixes[head]`` is ``rows[head]`` left-factored into a prefix tree
    (Moore 2000, "Improved Left-Corner Chart Parsing for Large Context-Free
    Grammars"): rules whose bodies start alike share the branches of that
    prefix, so the search expands a shared prefix once for all of them. A
    branch is ``(name, slot, rest_need, rest_first, ends, branches)``:
    the body symbol and its slot, the least ``rest_need`` and the union of
    the ``rest_first`` masks over the rules that pass through it, the
    indices into ``rows[head]`` of the rules that end with it, and its
    child branches. That bound admits every suffix that one of its rules'
    bounds admits, so it cuts only what all of them cut.
    """

    __slots__ = ("rows", "unions", "prefixes")

    def __init__(self, rows, unions, prefixes):
        self.rows = rows
        self.unions = unions
        self.prefixes = prefixes


def _factor(rows, rules, depth=0):
    """The prefix-tree branches below ``depth`` of the ``rules`` indices into ``rows``."""
    groups = {}
    for rule in rules:
        if len(rows[rule]) > depth:
            groups.setdefault(rows[rule][depth][0], []).append(rule)
    branches = []
    for name, group in groups.items():
        cells = [rows[rule][depth] for rule in group]
        rest_first = 0
        for cell in cells:
            rest_first |= cell[5]
        branches.append((
            name,
            cells[0][1],
            min(cell[4] for cell in cells),
            rest_first,
            tuple(rule for rule in group if len(rows[rule]) == depth + 1),
            _factor(rows, group, depth + 1),
        ))
    return tuple(branches)


def _compile(grammar, insertable):
    """The ``GrammarTable`` of ``insertable``, by fixpoint over the rules."""
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
    slots = {name: index for index, name in enumerate(grammar.rules_for)}
    rows = {
        head: tuple(
            tuple(
                (name, slots.get(name)) + bound(name) + rest
                for name, rest in zip(rule.body, suffixes(rule.body))
            )
            for rule in rules
        )
        for head, rules in grammar.rules_for.items()
    }
    bits = TERMINAL_BITS.values()
    firsts = {cell[3] for head_rows in rows.values() for row in head_rows for cell in row}
    unions = tuple(
        (mask, tuple(bit for bit in bits if mask & bit)) for mask in sorted(firsts - set(bits))
    )
    prefixes = {head: _factor(head_rows, range(len(head_rows))) for head, head_rows in rows.items()}
    return GrammarTable(rows, unions, prefixes)


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


_LEAF_CACHE = {name: TreeNode(symbol=name) for name in TERMINALS}


def derive(grammar, fill, state=None, masks=None, insertable=frozenset()):
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
    ``grammar.depth_limit``. A terminal's choices are memoized on the
    fill's own arguments, (name, parent head, grandparent head, state), so
    ``fill`` is called at most once per distinct arguments in a run and
    must return the same choices for the same arguments. Memoized
    subtrees, leaves and payloads are shared between trees. A memoized
    nonterminal's list comes from one walk over its rules' prefix tree
    (``GrammarTable.prefixes``), which expands a shared body prefix once
    and keeps each rule's derivations apart, joined in file order. The
    start symbol's derivations are streamed, never all held at once: an
    unbounded search can yield tens of thousands of trees.

    A search over an input passes ``masks``, per token the ``TERMINAL_BITS``
    mask of the categories it reads as, and ``insertable``, the terminals
    its fill may choose without consuming a token; every other terminal
    consumes one. ``state[0]`` is then the token position, and only the
    derivations that end at ``len(masks)`` are yielded. When ``covers``
    rejects the masks from ``state[0]`` on, the search returns before any
    other work. Otherwise it cuts each rule body suffix that needs more
    tokens than are left, or needs one and cannot start with the pending
    token, by the bounds in ``grammar.table(insertable)``: a rule's whole
    body before the rule is tried, and the suffix after a symbol for each
    of that symbol's choices, so no symbol of a cut suffix is expanded.
    Below the start symbol the bound is a prefix-tree branch's, which cuts
    a suffix only when every rule through the branch would. Such a suffix
    has no derivation, so the order is that of the search without
    ``masks``, and the memo stays exact because a cut depends only on the
    suffix and the state. With ``masks`` None nothing is cut. A masked
    search needs a start: without ``state`` it raises ValueError.
    """
    if masks is not None and state is None:
        raise ValueError("a masked search needs a start state: state[0] is the token position")
    if masks is not None and not covers(grammar, masks[state[0]:], insertable):
        return iter(())
    start_usage = tuple(int(name == grammar.start) for name in grammar.rules_for)
    search = _Derivation(grammar, fill, masks, insertable)
    return search.derivations(grammar.start, None, state, start_usage)


class _Derivation:
    """One ``derive`` run: the fill, the input bounds and the memo, with no reference cycle.

    Plain methods instead of nested closures let the memo go as soon as the
    returned iterator does, without waiting for the cyclic garbage collector.
    ``pending[pos]`` is (tokens left, mask of token ``pos`` or 0) and ``last``
    the input's length, both None without input. The start symbol's last body
    symbol keeps only the choices that end at ``last``, so no root derivation
    that leaves a token unconsumed is built.
    """

    def __init__(self, grammar, fill, masks, insertable):
        self.depth_limit = grammar.depth_limit
        self.fill = fill
        self.pending = self.last = None
        if masks is not None:
            self.pending = [(len(masks) - pos, mask) for pos, mask in enumerate([*masks, 0])]
            self.last = len(masks)
        table = grammar.table(insertable)
        self.rows = table.rows
        self.prefixes = table.prefixes
        self.memo = {}

    def expand(self, name, slot, parent, grandparent, state, usage):
        """(node, payloads, end_state) choices for one body symbol, memoized.

        A terminal's key is (name, parent, grandparent, state), the fill's
        arguments; a nonterminal's is (name, parent, state, usage). The two
        cannot collide, because no terminal heads a rule. A nonterminal's
        list is ``walk``'s per-rule buckets joined in file order.
        """
        if slot is None:
            key = (name, parent, grandparent, state)
            found = self.memo.get(key)
            if found is None:
                leaf = _LEAF_CACHE[name]
                found = self.memo[key] = [
                    (leaf, payloads, end)
                    for payloads, end in self.fill(name, parent, grandparent, state)
                ]
            return found
        count = usage[slot] + 1
        if count > self.depth_limit:
            return ()
        usage = usage[:slot] + (count,) + usage[slot + 1 :]
        key = (name, parent, state, usage)
        found = self.memo.get(key)
        if found is None:
            buckets = [[] for _ in self.rows[name]]
            self.walk(self.prefixes[name], name, parent, state, usage, (), (), buckets)
            found = self.memo[key] = [item for bucket in buckets for item in bucket]
        return found

    def walk(self, branches, head, parent, state, usage, children, payloads, buckets):
        """Complete every rule body below one prefix-tree node into ``buckets``.

        ``children`` and ``payloads`` are the prefix built so far, which
        ends at ``state``. A branch whose suffix the input left at ``state``
        cannot fill is skipped before its symbol is expanded. Each finished
        rule goes to its own bucket, ``buckets[rule]``, in DFS order.
        """
        pending = self.pending
        for name, slot, need, first, ends, after in branches:
            if need and pending:
                left, cats = pending[state[0]]
                if need > left or not cats & first:
                    continue
            for node, more, end in self.expand(name, slot, head, parent, state, usage):
                built = children + (node,)
                joined = payloads + more
                for rule in ends:
                    buckets[rule].append((TreeNode(head, built), joined, end))
                if after:
                    self.walk(after, head, parent, end, usage, built, joined, buckets)

    def derivations(self, symbol, parent, state, usage):
        """The start symbol's derivations, streamed row by row, never held at once."""
        rows = self.rows[symbol]
        if self.pending:  # one lookup for every row's first suffix
            left, cats = self.pending[state[0]]
            rows = [
                row for row in rows
                if not row[0][4] or row[0][4] <= left and cats & row[0][5]
            ]
        for row in rows:
            for children, payloads, end in self.body(row, 0, symbol, parent, state, usage, (), ()):
                yield TreeNode(symbol, children), payloads, end

    def body(self, row, index, head, parent, state, usage, children, payloads):
        """Complete a root rule body whose first ``index`` symbols are built.

        The caller has checked that the input left at ``state`` can fill the
        suffix at ``index``. Each choice for that symbol is checked the same
        way against the suffix after it before the body recurses, so no
        generator is opened for a suffix the input cannot fill.
        """
        name, slot = row[index][:2]
        choices = self.expand(name, slot, head, parent, state, usage)
        index += 1
        if index == len(row):
            last = self.last  # the root consumes every token
            for node, more, end in choices:
                if last is None or end[0] == last:
                    yield children + (node,), payloads + more, end
            return
        need, first = row[index][4:]
        pending = self.pending if need else None
        for node, more, middle in choices:
            if pending:
                left, cats = pending[middle[0]]
                if need > left or not cats & first:
                    continue
            yield from self.body(
                row, index, head, parent, middle, usage, children + (node,), payloads + more
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


def covers(grammar, masks, insertable):
    """Whether a derivation of the start symbol can consume every input token.

    ``masks`` holds, per token, the ``TERMINAL_BITS`` mask of the categories
    it reads as. The check relaxes the search as ``Grammar.table`` does: a
    terminal consumes one token that reads as it or, when it is in
    ``insertable``, no token, and ``depth_limit`` is ignored. So ``False``
    proves that no ``derive`` run over these tokens, with a fill that
    inserts only ``insertable`` terminals, ends at the last token.

    A memoized recognizer over (symbol, start position) pairs, each holding
    the end positions it reaches as an int bitset. A nonterminal that must
    consume a token is tried only at positions whose token reads as a
    terminal in its FIRST set: from any other it reaches no end. A pair
    read while it is being computed (left recursion) gives the previous
    pass's ends, none at first, and passes repeat until no pair changes:
    the least fixpoint, so the answer is exact for the relaxed grammar.
    """
    table = grammar.table(insertable)
    # Per FIRST mask, the positions of the tokens that read as a terminal in
    # it: for a terminal's own bit, the tokens that read as that terminal.
    admit = dict.fromkeys(TERMINAL_BITS.values(), 0)
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
    seeds = {}
    while True:
        chart = _Cover(table.rows, admit, seeds)
        reached = chart.ends(grammar.start, 0)
        if not chart.looped or chart.memo == seeds:
            return bool(reached >> len(masks) & 1)
        seeds = chart.memo


class _Cover:
    """One ``covers`` pass: plain methods, so the chart leaves no reference cycle."""

    def __init__(self, rows, admit, seeds):
        self.rows = rows
        self.admit = admit
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
            admit = self.admit
            for row in self.rows[symbol]:
                reached = 1 << start
                for name, slot, need, first, _rest_need, _rest_first in row:
                    if slot is None:
                        reached = (0 if need else reached) | (reached & admit[first]) << 1
                    else:
                        starts, reached = reached & admit[first] if need else reached, 0
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
