"""`python -m liyau`: the CLI, ended without interpreter teardown.

`cli.main` ends with SystemExit, as click and every run command do.  By
then its work is done: `run_passes` has reaped its forked MC workers
before the command returns, and no thread or other process runs in the
background.  So the process flushes stdout and stderr and ends with
`os._exit`, which spares it the teardown of every module and object (about
20 ms of a verify).  The exit code is the one Python would give: None is
0, an int is kept, and any other code is printed to stderr and is 1.  A
flush that fails ends the process with 120, as it does in Python's own
teardown, so lost output never reads as success.  Any other exception
propagates as it would without this.
"""

import os
import sys

from .cli import main


def _exit_status(code) -> int:
    """The status of SystemExit(code), after flushing stdout and stderr."""
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except Exception:   # e.g. a closed pipe or a full disk
            code = 120
    return code


try:
    main()
    code = None
except SystemExit as exc:
    code = exc.code
os._exit(_exit_status(code))
