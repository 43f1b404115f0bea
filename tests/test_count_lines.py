from count_lines import count, main

SAMPLE = '''"""Module docstring,
over two lines."""

# A comment line.
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        return os.path.join(  # a trailing comment keeps the line
            "a",
            "b",
        )
'''


def test_count_leaves_out_blanks_comments_and_docstrings():
    # Raw: all 16 lines. Code: import, class, def and the four lines of the
    # return expression.
    assert count(SAMPLE) == (16, 7)


def test_a_string_that_is_not_a_docstring_counts():
    source = 'x = 1\n"""Not a docstring:\nit follows a statement."""\n'
    assert count(source) == (3, 3)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("\n# only a comment\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    16      7 a.py",
        "     2      0 b.py",
        "    18      7 total",
    ]
