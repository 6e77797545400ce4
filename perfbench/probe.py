"""One set-up, in a fresh process: import urnengine and build a workload's
rings, then exit.  run.py times this process from start to exit to measure
set-up time.

    python3 perfbench/probe.py --workload mc_two_level --seed 1
"""

import argparse
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import inputs
    import urnengine

    if args.workload == "cli":
        import urnengine.cli  # noqa: F401 - what every urnengine process imports

    spec = inputs.make(args.workload, args.seed)
    rings = [inputs.build_ring(r) for r in spec.get("rings", {}).values()]
    if args.workload.startswith("mc_"):
        from urnengine import montecarlo

        for ring in rings:
            montecarlo.ring_spec_of(ring)
    return 0 if urnengine.__file__.startswith(os.path.join(os.getcwd(), "src")) else 1


if __name__ == "__main__":
    raise SystemExit(main())
