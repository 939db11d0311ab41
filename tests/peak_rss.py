"""Run a command and fail if it peaked above a resident-set bound.

Usage: python tests/peak_rss.py MAX_MIB COMMAND [ARG...]

The command inherits stdin, stdout and stderr. The exit status is the
command's own when it fails, 1 when the largest resident set of the command
or of any process it waited for exceeded MAX_MIB, and 0 otherwise. The peak
is resource.getrusage(RUSAGE_CHILDREN).ru_maxrss, printed to stderr, so
this runs on Unix only.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    limit, command = float(argv[0]), argv[1:]
    status = subprocess.run(command).returncode
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / (1 << (20 if sys.platform == "darwin" else 10))
    print(f"peak RSS {peak:.1f} MiB, bound {limit:g} MiB", file=sys.stderr)
    if status:
        return status
    return 1 if peak > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
