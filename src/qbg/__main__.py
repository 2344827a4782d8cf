"""The process entry of ``python -m qbg`` and of the installed ``qbg`` script.

:func:`entry` runs the CLI and then, in a ``finally``, calls ``gc.freeze()``:
that moves every object still alive into the collector's permanent
generation, so the collection at interpreter exit does not walk numpy's
heap.  ``qbg.cli.main`` called inside another process leaves the collector
alone.
"""

import gc
import sys

from .commands import main


def entry() -> int:
    """Run the CLI on ``sys.argv``; returns its exit status."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
