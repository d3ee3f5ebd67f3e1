"""The process entry point: ``python -m hlag`` and the ``hlag`` console
script both return through ``run``.

``run`` calls ``gc.freeze()`` once ``cli.main()`` has returned.  That moves
every live object to the permanent generation, which collections skip, so
the collection at interpreter exit no longer walks the heap that importing
numpy and hlag built; the process exits right after.  In-process callers
call ``cli.main()``, which leaves the collector as it is.

A closed output pipe (``hlag ... | head -1``) ends the run quietly with
exit code 1, as Python's own handling of EPIPE does, instead of a
``BrokenPipeError`` traceback.
"""

import gc
import os
import sys


def run() -> int:
    from .cli import main

    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``hlag ... | head -1``); send what is
        # still buffered to devnull, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
