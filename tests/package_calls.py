"""Which package functions a route runs: the recorder behind the tests that
two routes of one identity share no code."""

import os
import sys

import qident

_ROOT = os.path.dirname(qident.__file__) + os.sep


def package_calls(fn, *args):
    """The qident functions (file, first line, name) that ``fn(*args)``
    runs, recorded with ``sys.setprofile``."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(_ROOT):
            seen.add((os.path.basename(code.co_filename),
                      code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return seen
