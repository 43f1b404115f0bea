"""Host-speed calibration kernel.

The shared machines this benchmark runs on change speed by up to about 2x
in phases that last from seconds to minutes, which swamps the differences
a benchmark should detect. The run therefore times this fixed pure-Python
kernel between blocks of operations and scales each block's times by
``REFERENCE_S / kernel time``: an end-to-end time is reported as it would
read on a host where the kernel takes ``REFERENCE_S``. The kernel mixes
integer arithmetic with a recursive generator parse that builds frozen
dataclass nodes, the kind of work the planner does, because on these hosts
that mix tracked the package's own slowdowns closely (about 2% spread of
the ratio against about 40% raw, over 20-second windows).

Nothing here imports the package, and the kernel never changes between the
commits it compares, so a change in the package cannot move it.
"""

import time
from dataclasses import dataclass

REFERENCE_S = 0.0025  # kernel time that defines the reported scale


@dataclass(frozen=True)
class _Node:
    symbol: str
    children: tuple = ()


_RULES = {
    "S": (("NP", "VP"), ("VP",)),
    "NP": (("d", "n"), ("n",), ("d", "n", "PP"), ("n", "PP")),
    "PP": (("p", "NP"),),
    "VP": (("v",), ("v", "NP"), ("v", "PP"), ("v", "NP", "PP")),
}
_TOKENS = ("d", "n", "v", "d", "n", "p", "n", "p", "d", "n")


def _parse(symbol, position, usage):
    if symbol not in _RULES:
        if position < len(_TOKENS) and _TOKENS[position] == symbol:
            yield _Node(symbol), position + 1
        return
    count = usage.get(symbol, 0) + 1
    if count > 3:
        return
    usage = dict(usage)
    usage[symbol] = count
    for body in _RULES[symbol]:
        yield from _parse_body(body, 0, position, usage, ())


def _parse_body(body, index, position, usage, children):
    if index == len(body):
        yield _Node("X", children), position
        return
    for child, after in _parse(body[index], position, usage):
        yield from _parse_body(body, index + 1, after, usage, children + (child,))


def _arithmetic():
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


def _parsing():
    complete = 0
    for _ in range(12):
        for _tree, position in _parse("S", 0, {}):
            complete += position == len(_TOKENS)
    return complete


def kernel_seconds():
    """Geometric mean of the two parts' wall times, in seconds."""
    started = time.perf_counter()
    _arithmetic()
    middle = time.perf_counter()
    _parsing()
    ended = time.perf_counter()
    return ((middle - started) * (ended - middle)) ** 0.5
