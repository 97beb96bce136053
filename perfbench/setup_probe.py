"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Times `import fwstates.cli` (which imports the fwstates package first)
and constructing the workload's parameter objects; importing the
benchmark's own workload module in between is not counted.  Prints one
JSON line with setup_s, cli_import_s (the cold import alone) and
calibration_s, the calibration kernel timed in this interpreter right
after, so that set-up time is rescaled by the speed of the process that
did the work.
"""

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

start = perf_counter()
import fwstates.cli  # noqa: E402,F401

imported = perf_counter()
workload = importlib.import_module(sys.argv[1])
before_params = perf_counter()
workload.build_params()
done = perf_counter()

import calib  # noqa: E402

calibration_s = calib.measure(5)

print(
    json.dumps(
        {
            "setup_s": (imported - start) + (done - before_params),
            "cli_import_s": imported - start,
            "calibration_s": calibration_s,
        }
    )
)
