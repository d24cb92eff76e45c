"""One cold set-up of a workload, timed in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <0|1>``.

Imports the program, builds the PUT, runs the offline phase and wires a
campaign -- what a ``python -m repro run`` process pays before its first
fuzz iteration -- and prints one JSON line: ``setup_s``, plus the
``core`` layer's span totals when the last argument is ``1``.
"""

import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(workload_name: str, seed: int, traced: bool) -> dict:
    from tracing import Tracer, span_seconds
    from workloads import WORKLOADS

    tracer = None
    if traced:
        tracer = Tracer(full=True)
        tracer.install()
        tracer.enabled = True
    from repro.harness.parallel import shared_statics

    # The shard's own path: PUT build + offline phase, then wiring.
    spec = WORKLOADS[workload_name].scenario(seed)
    core, offline = shared_statics(spec.build_config())
    spec.build_specure(core=core, offline=offline).build_campaign()
    result = {"setup_s": time.perf_counter() - START}
    if tracer is not None:
        result["core.build_put_s"] = span_seconds(tracer.spans,
                                                  "core.build_put")
        result["core.offline_s"] = span_seconds(tracer.spans,
                                                "core.offline")
        tracer.uninstall()
    return result


if __name__ == "__main__":
    name, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(json.dumps(main(name, seed, traced)))
