"""The process entry of ``python -m qbg`` and of the installed ``qbg`` script.

:func:`entry` runs the CLI, flushes ``sys.stdout`` and ``sys.stderr``, and
then ends the process with the CLI's exit status through ``os._exit``.  The
report file is closed by then, so interpreter teardown (the collection at
exit, module clean-up, ``atexit`` handlers) has nothing left to do for the
run, and skipping it saves its time.  A flush that fails raises, so the
process still ends nonzero.  An exception out of the CLI, and argparse's
``SystemExit`` for ``--help`` and usage errors, propagate and end the process
the usual way.  ``qbg.cli.main`` called inside another process does none of
this.
"""

import os
import sys

from .commands import main


def entry():
    """Run the CLI on ``sys.argv`` and end the process with its exit status;
    does not return."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
