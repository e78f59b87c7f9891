"""Traced stand-in for `python -m faulhaber.cli`, one request per process.

    python3 perfbench/traced_cli.py SPAWNED_AT OP_ID OUT_FILE CLI_ARGS...

SPAWNED_AT is the parent's `time.perf_counter()` just before the spawn (a
system-wide monotonic clock on Linux), so interpreter start plus
`import faulhaber.cli` is measured from it. The wrappers go in after that
import, then `faulhaber.cli.main` runs and the aggregates and spans are
written to OUT_FILE. Exit code, stdout and stderr are those of the CLI.
"""

import sys
import traceback
from time import perf_counter

import faulhaber.cli

imported = perf_counter()

from tracing import Tracer  # noqa: E402  (after the startup measurement)


def run(spawned_at: float, op_id: int, out: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op_id = op_id
    tracer.startup_s.append(imported - spawned_at)
    tracer.install()
    try:
        code = faulhaber.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # as the interpreter does: traceback on stderr, exit 1
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    tracer.uninstall()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(run(float(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4:]))
