"""The statement finder of the line-reach tool, on a synthetic module."""
from __future__ import annotations

import linereach

SOURCE = '''"""Module docstring."""
import os
from math import pi


@staticmethod
def f(x):
    """Function docstring."""
    global g
    y: int
    if x:
        return (x +
                1)
    return pi


class C:
    """Class docstring."""
    a: int = 1
'''


def test_finder_skips_docstrings_headers_imports_and_global():
    # first line -> own lines; the if's own line excludes its nested return
    assert linereach.statements(SOURCE) == {11: {11}, 12: {12, 13}, 14: {14}, 19: {19}}


def test_a_statement_is_reached_by_any_of_its_own_lines(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    ran = {(str(path), 13), (str(path), 19)}
    assert linereach.unreached([path], ran) == [(path, 11), (path, 14)]
