"""``repro serve`` with the cost ledger installed.

Run as ``python perfbench/traced_server.py [serve flags]`` from the
repository root: it installs the ledger wrappers (:mod:`ledger`) into the
imported ``repro`` modules, then runs the unmodified ``repro serve``
command with the given flags.  The ledger is read back over the same
JSONL port with ``{"op": "perfbench_ledger", "action": "dump"}``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from ledger import Ledger, install_serve
    from repro.cli import main as repro_main

    install_serve(Ledger())
    return repro_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
