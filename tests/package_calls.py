"""Which package functions a route runs: the recorder behind the tests that
two routes of one identity share no code, and that a run builds a shared
table once."""

import os
import sys

import qident

_ROOT = os.path.dirname(qident.__file__) + os.sep


def _record(on_call, fn, args):
    """Run ``fn(*args)`` with ``on_call(frame)`` called at every call of a
    qident function, through ``sys.setprofile``."""
    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(_ROOT):
            on_call(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)


def package_calls(fn, *args):
    """The qident functions (file, first line, name) that ``fn(*args)``
    runs."""
    seen = set()

    def on_call(frame):
        code = frame.f_code
        seen.add((os.path.basename(code.co_filename), code.co_firstlineno,
                  code.co_name))

    _record(on_call, fn, args)
    return seen


def call_args(target, fn, *args):
    """The positional arguments of each call that ``fn(*args)`` makes to the
    qident function ``target``, in call order, under whatever name the
    caller reached it by."""
    code = target.__code__
    names = code.co_varnames[:code.co_argcount]
    calls = []

    def on_call(frame):
        if frame.f_code is code:
            calls.append(tuple(frame.f_locals[n] for n in names))

    _record(on_call, fn, args)
    return calls
