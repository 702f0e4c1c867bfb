"""Child process that times set-up: interpreter start, import, argument parsing.

Usage: python3 probe.py SRC_DIR SUBCOMMAND [FLAGS...]

Imports ``disasterbrw.cli`` from SRC_DIR and runs the given invocation until
its first replica begins, which is the first ``DisasterField`` it builds
(every subcommand the benchmark runs builds one per replica).  The import and
argument parsing run under a ``speedclock.SpeedClock``, after one warm-up
run of its kernel (a fresh interpreter's first run is slower).  When the
first replica begins, the probe writes one line to stdout and exits at once:
``replica NORM_S WALL_S KERNEL_S``, the clock's normalized and raw time and
the time all kernel runs took.  The parent measures the time from
starting this process to reading that line.
"""

import os
import sys

import speedclock


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    warm_up = speedclock.kernel()
    clock = speedclock.SpeedClock()

    def first_replica(*_args, **_kwargs):
        clock.__exit__(None, None, None)
        line = f"replica {clock.norm_s!r} {clock.wall_s!r} {warm_up + sum(clock.samples)!r}\n"
        os.write(1, line.encode())
        os._exit(0)

    with clock:
        from disasterbrw import cli, env

        env.DisasterField.__init__ = first_replica
        cli.main(sys.argv[2:])
    os._exit(3)  # the invocation finished without building a field


if __name__ == "__main__":
    main()
