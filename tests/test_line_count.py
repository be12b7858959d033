"""tests/line_count.py's classifier on a snippet whose counts are known."""

import line_count

SNIPPET = '''"""Module docstring,

over three lines."""
import os  # a comment after code is code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string

    that is not a docstring"""
    return os.path.join(x,
                        text)
'''


def test_classifier_counts_each_kind_of_line():
    # Docstring: lines 1 and 3 (2 is blank) and 10. Code: 4, 9, 11-15.
    # Comment: 6. Blank: 2, 5, 7, 8.
    assert line_count.classify(SNIPPET) == {
        "lines": 15, "code": 7, "docstring": 3, "comment": 1, "blank": 4}
