"""One set-up sample: a fresh interpreter imports revca and warms up.

    python3 perfbench/probe.py WORKLOAD

``run.py`` times this process from start to exit; that is what a user of the
CLI pays on every invocation before the first answer.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import client  # noqa: E402
import paths  # noqa: E402

if __name__ == "__main__":
    paths.use_checkout(with_oracles=False)
    client.warm_up(sys.argv[1])
