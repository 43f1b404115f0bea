"""The package's resource-file readers and its one atomic writer.

Every reader raises the caller's ``FraseoError`` subclass naming the path
and the line at fault, or the path alone when the file cannot be read.
``read_text`` decodes every text file that is not XML; ``data_lines`` splits
the line files (polarity table, allowlist, usage model, evaluation corpus)
out of it; ``read_elements`` reads the XML files (lexicon, source lexica,
annotations).
"""

import os
import xml.etree.ElementTree as ET
from xml.parsers import expat

from .errors import FraseoError

_NO_ELEMENTS = expat.errors.codes[expat.errors.XML_ERROR_NO_ELEMENTS]


def bundled(name, path=None):
    """``path``, or when it is None the bundled data file ``name``.

    The data files ship inside the package directory (package-data), so a
    plain path reaches them without importing ``importlib.resources``.
    """
    if path is None:
        return os.path.join(os.path.dirname(__file__), "data", name)
    return path


def read_text(path, error):
    """The UTF-8 text of ``path``, with every line end read as ``"\\n"``.

    Line ends are those of a text-mode ``open``: ``\\r\\n`` and ``\\r`` become
    ``\\n``. A byte that is not UTF-8 raises ``error`` naming ``path`` and the
    line of the first such byte; a file that cannot be read raises it naming
    ``path`` and the system's reason.
    """
    try:
        with open(path, "rb") as handle:
            # UTF-8 holds bytes 0x0A and 0x0D only as themselves, so the line
            # ends can be read before the text is decoded.
            data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    except OSError as exc:
        raise error(exc.strerror, None, path) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error("invalid UTF-8 byte 0x%02x" % data[exc.start], line, path) from None


def data_lines(path, error):
    """(line number, line) for each line of ``path`` that holds data.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped. A line keeps its whitespace and loses only its line end. Text
    that is not UTF-8 raises ``error``, as ``read_text`` does.
    """
    return [
        (number, line)
        for number, line in enumerate(read_text(path, error).split("\n"), start=1)
        if line.strip()[:1] not in ("", "#")
    ]


def element_lines(path):
    """Opening lines of the root element and then of each of its children.

    Called only once a file has failed, so a good file is parsed once.
    """
    parser = expat.ParserCreate()
    lines = []
    depth = 0

    def start(name, attrs):
        nonlocal depth
        if depth <= 1:
            lines.append(parser.CurrentLineNumber)
        depth += 1

    def end(name):
        nonlocal depth
        depth -= 1

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    with open(path, "rb") as handle:
        parser.ParseFile(handle)
    return lines


def read_elements(path, root_tag, child_tag, read, error):
    """``read(element, root)`` for each child of the XML file's root, in file order.

    The root must be a ``<root_tag>`` and every child a ``<child_tag>``.
    Malformed XML or a wrong tag raises ``error``, and an ``error`` that
    ``read`` raises is raised again as its own class; either names ``path``
    and the line of the element at fault. A file that ends before its root
    closes names its last line. A file that cannot be read raises
    ``error`` naming ``path`` and the system's reason.
    """
    try:
        with open(path, "rb") as handle:
            try:
                root = ET.parse(handle).getroot()
            except (LookupError, ValueError) as exc:
                # expat cannot decode the encoding the declaration, on line 1, names.
                raise error("bad XML encoding declaration: %s" % exc, 1, path) from None
    except ET.ParseError as exc:
        line, reason = exc.position[0], "malformed XML: %s" % exc
        if exc.code == _NO_ELEMENTS:
            # expat places the end of a newline-terminated file on the line after its last.
            with open(path, "rb") as handle:
                last = max(1, len(handle.read().splitlines()))
            if line > last:
                line, reason = last, "malformed XML: the file ends before <%s> closes" % root_tag
        raise error(reason, line, path) from None
    except OSError as exc:
        raise error(exc.strerror, None, path) from exc
    results = []
    index = -1  # the root: its line comes first in element_lines
    try:
        if root.tag != root_tag:
            raise error("root element must be <%s>, got <%s>" % (root_tag, root.tag))
        for index, element in enumerate(root):
            if element.tag != child_tag:
                raise error("unexpected element <%s>" % element.tag)
            results.append(read(element, root))
    except error as exc:
        raise type(exc)(exc.reason, element_lines(path)[index + 1], path) from None
    return results


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` as UTF-8, all or nothing.

    The text goes to a temp file in the target's directory, which then
    replaces ``path`` in one rename. On any failure the temp file is removed
    and a previous ``path`` is left as it was. A system error raises
    ``FraseoError`` naming ``path`` and the system's reason, as the readers
    do, never the temp file.
    """
    import tempfile  # only writes need it; kept off the generate path

    directory = os.path.dirname(os.path.abspath(path))
    temp_path = None
    try:
        handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(text)
        os.replace(temp_path, path)
    except BaseException as exc:
        if temp_path is not None and os.path.exists(temp_path):
            os.unlink(temp_path)
        if isinstance(exc, OSError):
            raise FraseoError(exc.strerror, None, path) from exc
        raise
