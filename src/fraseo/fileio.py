"""Atomic text-file writes shared by every file the package saves."""

import os
import tempfile


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` as UTF-8, all or nothing.

    The text goes to a temp file in the target's directory, which then
    replaces ``path`` in one rename. On any failure the temp file is removed
    and a previous ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
