"""Set-up probe: import the CLI and parse a config, then print the clock.

``run.py`` reads the monotonic clock before it spawns this interpreter and
subtracts that from the value printed here, which gives the time a user
waits before the pipeline starts.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evolveq.cli import ExperimentConfig  # noqa: E402

ExperimentConfig.from_file(Path(sys.argv[1]))
print(time.monotonic())
