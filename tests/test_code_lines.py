"""``tools/code_lines.py``, the code-line count the size target is measured with."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines_tool", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def _count(code_lines, source):
    return code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blank_lines_are_excluded(code_lines):
    source = '''\
        """Module docstring
        over two lines."""

        # a comment line
        import os  # a trailing comment


        class Shape:
            """Class docstring."""

            sides = 4

            def area(self):
                """Method docstring,
                two lines."""
                # another comment
                return 1.0


        def free():
            """Function docstring."""
            return os.sep


        async def waiting():
            """Coroutine docstring."""
            return None
        '''
    # import, class, sides, def area, return, def free, return, async def, return
    assert _count(code_lines, source) == 9


def test_each_line_of_a_multi_line_statement_counts(code_lines):
    source = """\
        total = sum(
            [1, 2,
             3]
        )
        text = '''a string that is not a docstring
        spans two lines'''
        """
    assert _count(code_lines, source) == 6


def test_a_string_after_the_first_statement_is_code(code_lines):
    source = '''\
        def f():
            value = 1
            """not a docstring: it is not the first statement"""
            return value
        '''
    assert _count(code_lines, source) == 4


def test_empty_source_and_docstring_only_modules(code_lines):
    assert _count(code_lines, "") == 0
    assert _count(code_lines, '"""Only a docstring."""\n') == 0
    assert _count(code_lines, "# only a comment\n\n") == 0
