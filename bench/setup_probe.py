"""Set-up cost a CLI invocation pays: import qdarwin.cli, parse the inputs.

Run in a fresh interpreter:
    python3 bench/setup_probe.py SRC_DIR KIND:PATH [KIND:PATH ...]
with KIND one of witness, sweep, state.  Prints one JSON object with
``import_s`` and ``inputs_s``.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, *inputs = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qdarwin.cli  # noqa: F401
    t1 = time.perf_counter()
    from qdarwin import serialize

    parsers = {
        "witness": lambda p: serialize.config_from_dict(json.loads(Path(p).read_text())),
        "sweep": lambda p: serialize.sweep_from_dict(json.loads(Path(p).read_text())),
        "state": serialize.load_state,
    }
    for item in inputs:
        kind, path = item.split(":", 1)
        parsers[kind](path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
