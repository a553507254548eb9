"""Run one command as this process's only child and report what it cost.

    python3 -S tools/launch.py [--timeout SECONDS] [--stdout FILE] -- COMMAND...

Prints one JSON line: the child's exit code (null if it was killed at the
timeout), its wall time, its CPU time and its peak resident set in MiB.
The CPU time and the peak come from ``getrusage(RUSAGE_CHILDREN)``, which
covers only children that were waited for; this process starts no other,
so they are the command's own.  ``-S`` keeps the launcher free of site
packages.  The command's stdout goes to FILE when given, else to this
process's stdout before the report; its stderr is passed through.  Exits
with the command's exit code, or 124 at the timeout.  Stdlib only; Linux
reports ``ru_maxrss`` in KiB.
"""

import json
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    timeout = stdout = None
    while argv and argv[0] != "--":
        if len(argv) < 2 or argv[0] not in ("--timeout", "--stdout"):
            sys.exit(f"launch: expected --timeout S, --stdout FILE or --, got {argv[0]!r}")
        flag, value, *argv = argv
        if flag == "--timeout":
            timeout = float(value)
        else:
            stdout = value
    command = argv[1:]
    if not command:
        sys.exit("launch: no command after --")
    out = open(stdout, "wb") if stdout else None
    start = time.perf_counter()
    try:
        code = subprocess.run(command, stdout=out, timeout=timeout).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code = None
    finally:
        wall = time.perf_counter() - start
        if out:
            out.close()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "returncode": code,
        "wall_s": round(wall, 4),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
        "command": command,
    }), flush=True)
    return 124 if code is None else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
