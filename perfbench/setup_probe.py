"""Set-up probe: a fresh interpreter imports cmkz and builds one pass of inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this whole process for its ``setup_s`` metric.
"""

import sys

from run import use_checkout_source

if __name__ == "__main__":
    use_checkout_source()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]), 0)
