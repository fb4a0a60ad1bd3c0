"""Set-up probe: one fresh interpreter imports the package from the checkout
and makes a workload's first batch of inputs, then prints `ready` and the
core-speed scale of that time.

    python3 perfbench/setup_probe.py <workload> <seed>

`run.py` times it from process start to that line (the `setup_s` metric).
"""

import sys

from corespeed import CoreSpeed


def main(name: str, seed: int) -> None:
    with CoreSpeed() as speed:
        from run import import_program

        import_program()
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        inputs = workload.inputs(seed)
        [next(inputs) for _ in range(workload.batch)]
    reason = speed.parallel()
    if reason:
        sys.exit(f"set-up: {reason}")
    print(f"ready {speed.scale()!r}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
