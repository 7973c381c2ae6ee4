"""Fresh-process set-up: import the package, build and validate the first config.

Usage: python3 setup_probe.py SRC_DIR builtin NAME | SRC_DIR config PATH

Prints ``ready`` once the config is built; the caller times the process from
spawn to that line.
"""

import sys

src, kind, arg = sys.argv[1:4]
sys.path.insert(0, src)

from athermal_markov import cli, experiments  # noqa: E402

if kind == "builtin":
    getattr(experiments, f"builtin_{arg}")()
else:
    cli.load_config(arg)
print("ready", flush=True)
