"""The code-line count that ROADMAP.md and CHANGES.md quote."""

import code_lines

FIXTURE = '''\
"""A module docstring
on two lines."""

import os  # a comment after code


class Joiner:
    """A class docstring."""

    def join(self, a,
             b):
        # a comment line
        return os.path.join(
            a,
            # a comment inside the call
            b,
        )
'''


def test_counts_code_lines_but_not_docstrings_comments_or_blanks():
    # import, class, def (2 lines), return and the call's 3 other lines
    assert code_lines.code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "joiner.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text('"""Nothing else."""\n')
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["empty.py", "0", "joiner.py", "8", "total", "8"]
