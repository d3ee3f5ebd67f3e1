"""The process entry point: ``python -m hlag`` and the ``hlag`` console
script both return through ``run``.

``run`` calls ``gc.freeze()`` once ``cli.main()`` has returned.  That moves
every live object to the permanent generation, which collections skip, so
the collection at interpreter exit no longer walks the heap that importing
numpy and hlag built; the process exits right after.  In-process callers
call ``cli.main()``, which leaves the collector as it is.
"""

import gc
import sys


def run() -> int:
    from .cli import main

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
