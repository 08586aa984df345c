"""Set-up probe: build a workload's first input in a fresh interpreter.

``python -m perfbench.probe WORKLOAD SEED`` imports the package, builds
what the workload needs before its first timed request, prints
``ready`` and exits; :func:`perfbench.common.time_probe` times it.
"""

import sys


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    if workload == "sweep-frontier":
        from perfbench.sweep_frontier import build_pass

        build_pass(seed, 0)
    elif workload == "dynamic-resolve":
        from perfbench.dynamic_resolve import start_simulation

        start_simulation(seed, 0)
    else:
        print(f"no set-up probe for {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
