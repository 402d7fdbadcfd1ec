"""Set-up probe: import cartanfree and cartanfree.cli, draw a workload's inputs, print "ready".

    python3 bench/ready.py WORKLOAD SEED

run.py times fresh interpreters running this script up to the "ready" line.
"""

import sys

import locate

locate.import_package()
import workloads  # noqa: E402  (needs the package path set up above)

workloads.draw(sys.argv[1], int(sys.argv[2]), locate.OUT)
print("ready", flush=True)
