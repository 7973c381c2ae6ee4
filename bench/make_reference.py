"""Regenerate bench/reference/ from the current code.

Usage (from the repository root): python3 bench/make_reference.py

Runs the built-in fig2, fig3 and distance studies with the optimizer's
default seed sequence and copies their CSVs into bench/reference/.  The
checked-in files were generated from the seed code; regenerate them only when
a change to the studies' numbers is intended, and say so with the change.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from athermal_markov import cli  # noqa: E402
from run import STUDY_OUTPUTS  # noqa: E402

# Outputs do not depend on the worker count; one worker is fastest.
os.environ["ATHERMAL_MARKOV_THREADS"] = "1"
with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as out:
    for study, files in STUDY_OUTPUTS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([study, "--out", out, "--no-svg"])
        if code != 0:
            raise SystemExit(f"{study} exited {code}")
        for name in files:
            shutil.copy(Path(out) / name, BENCH_DIR / "reference" / name)
            print(f"wrote bench/reference/{name}")
