"""Run the qstab command line in this process with tracing on.

    python3 benchmarks/cli_child.py SPANS.json -- COMMAND ARGS...

Times ``import qstab.cli`` as the span ``import.qstab``, installs the
tracing wrappers, calls ``qstab.cli.main`` with the arguments after ``--``
and exits with its code.  The spans, the counters and the first and last
timestamps go to SPANS.json for the benchmark process to merge.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[sys.argv.index("--") + 1:]
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from tracing import Recorder

    recorder = Recorder()
    begin = time.perf_counter()
    import qstab.cli

    recorder.add_span("import.qstab", begin, time.perf_counter())
    recorder.install()
    try:
        code = qstab.cli.main(argv)
    finally:
        recorder.uninstall()
    end = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"begin": begin, "end": end, "spans": recorder.spans, "counters": recorder.counters[0]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
