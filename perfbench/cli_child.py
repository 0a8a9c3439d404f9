"""`python -m ncusp.cli` with spans, for the traced cli-cold run.

    python3 cli_child.py SPANS_FILE OP_ID <ncusp arguments...>

Times `import ncusp.cli` as the span cli.import, installs the span wrappers,
runs the command through `ncusp.cli.main`, writes the spans to SPANS_FILE and
exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    spans_file, op, *argv = sys.argv[1:]
    tracer = spans.Tracer()
    tracer.op = op
    start = time.perf_counter()
    import ncusp.cli
    tracer.add("cli.import", start, time.perf_counter())
    spans.install(tracer)
    try:
        return ncusp.cli.main(argv)
    finally:
        Path(spans_file).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
