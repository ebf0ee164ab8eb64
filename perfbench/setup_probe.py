"""Time one fresh interpreter's set-up for a workload and print the seconds.

Set-up is importing `randlab.cli`, loading every scenario file named on the
command line and building its object table.  No experiment runs.  With
--control, the control build under perfbench/control is set up instead.

    python3 perfbench/setup_probe.py [--control] SCENARIO.json [SCENARIO.json ...]
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

args = sys.argv[1:]
if args[:1] == ["--control"]:
    args = args[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent / "control"))
    import randlab_control.cli as cli  # noqa: E402,F401
    import randlab_control.scenario as scenario  # noqa: E402
else:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import randlab.cli as cli  # noqa: E402,F401
    import randlab.scenario as scenario  # noqa: E402

for arg in args:
    scenario.ObjectTable(scenario.load_scenario(arg).objects)
print(repr(time.perf_counter() - START))
