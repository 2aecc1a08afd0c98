"""The line filter of ``tests/reach.py --lines``, on a small source: the
lines of a statement that only raises are left out, and every other
executable line that never ran is listed.  No command runs here."""

import textwrap

from reach import never_run

SOURCE = textwrap.dedent('''\
    def check(x):
        if x < 0:
            raise ValueError(
                "negative: %r"
                % (x,))
        try:
            y = int(x)
        except TypeError as exc:
            raise ValueError("not a number") from exc
        return y


    def unused():
        z = 1
        return z


    @staticmethod
    def decorated():
        return 2
    ''')


def test_raises_are_left_out_and_the_condition_is_listed():
    listed = never_run(SOURCE, set())
    assert 2 in listed and 14 in listed
    # the multi-line raise and the except clause that only raises
    assert not set(listed) & {3, 4, 5, 8, 9}


def test_unrun_assignment_is_listed():
    # a decorated header runs with its decorator's line
    ran = set(range(1, 11)) | {13, 18, 20}
    assert never_run(SOURCE, ran) == [14, 15]
