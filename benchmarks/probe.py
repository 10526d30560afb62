"""Set one workload up in a fresh interpreter and report when it is ready.

    python3 benchmarks/probe.py WORKLOAD SEED

Prints one JSON line: ``ready`` (the monotonic clock when the inputs are
ready, comparable with the parent's clock), ``import_s`` (time of
``import qstab`` alone) and ``scipy_loaded`` (1 if scipy was imported by
``import qstab``).
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    start = time.perf_counter()
    import qstab  # noqa: F401

    import_s = time.perf_counter() - start
    scipy_loaded = int("scipy" in sys.modules)
    import workloads

    workloads.WORKLOADS[name](seed, HERE / "out" / name).setup()
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "import_s": import_s, "scipy_loaded": scipy_loaded}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
