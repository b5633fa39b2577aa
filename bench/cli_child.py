"""``python -m lexworld`` with the per-layer tracer installed.

Used by the traced cli_mix run in place of ``-m lexworld``.  The CLI's
output and exit code are unchanged; the function totals of the one call
follow on the last line of stderr.
"""

import json
import sys

from tracing import TRACE_MARK, Tracer


def main() -> int:
    import lexworld.cli
    tracer = Tracer()
    tracer.install()
    tracer.begin("cli")
    try:
        return lexworld.cli.run(sys.argv[1:])
    finally:
        tracer.end()
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.export()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
