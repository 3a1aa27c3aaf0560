"""Where the benchmark finds the program and where it may write.

Everything stays inside the checkout: the program is imported from its
``src/`` tree, and scratch files (span dumps, density caches) go under
``.bench_run/`` at the checkout root.  ``~/.cache/substrqa`` is never read
or written, because every child gets its own ``SUBSTRQA_CACHE_DIR``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout has no substrqa sources to benchmark."""


def scratch_dir() -> Path:
    path = ROOT / ".bench_run"
    path.mkdir(exist_ok=True)
    return path


def import_program():
    """Import substrqa from this checkout's src/, never from elsewhere."""
    if not (SRC / "substrqa" / "__init__.py").is_file():
        raise MissingProgram(f"no substrqa package under {SRC}")
    sys.path.insert(0, str(SRC))
    import substrqa

    if Path(substrqa.__file__).resolve().parent != SRC / "substrqa":
        raise MissingProgram(f"imported substrqa from {substrqa.__file__}, not {SRC}")
    return substrqa


def child_env(cache_dir) -> dict:
    """Environment for a substrqa child process: this checkout's sources and
    a private density cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SUBSTRQA_CACHE_DIR"] = str(cache_dir)
    return env
