"""``python -m substrqa.cli`` with the layer tracer installed.

The traced cli-cold pass runs each op through this file instead of the
package's own entry point; it writes its spans to $BENCH_SPANS on exit.
"""

from __future__ import annotations

import json
import os
import sys

import env
import tracer as T


def main() -> None:
    lib = env.import_program()
    import substrqa.cli

    tracer = T.Tracer(lib)
    tracer.install()
    tracer.op = 0
    try:
        substrqa.cli.main(sys.argv[1:], prog_name="substrqa")
    finally:
        tracer.op = None
        tracer.uninstall()
        with open(os.environ["BENCH_SPANS"], "w") as fh:
            # No tracemalloc replay here: it would add seconds to every child.
            json.dump(tracer.dump(replay_alloc=False), fh)


if __name__ == "__main__":
    main()
