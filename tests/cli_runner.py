"""Run `mcalaudit.cli.main` in process with captured standard streams."""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass
from typing import Optional

from mcalaudit.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order written
    exception: Optional[BaseException]  # None, or what main raised other than SystemExit(0)


class _Capture(io.StringIO):
    """A stream that also appends what it is given to a shared log."""

    def __init__(self, log: list[str]):
        super().__init__()
        self._log = log

    def write(self, s: str) -> int:
        self._log.append(s)
        return super().write(s)


def invoke(args, input: str = "") -> Result:
    """`mcalaudit <args>` with `input` as standard input."""
    log: list[str] = []
    out, err = _Capture(log), _Capture(log)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(input), out, err
    exception = None
    try:
        main(list(args))
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
        if code:
            exception = e
    except Exception as e:
        code, exception = 1, e
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(code, out.getvalue(), err.getvalue(), "".join(log), exception)
