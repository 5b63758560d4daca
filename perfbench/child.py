"""External classifier child for the external-key workload.

Speaks the cfx line protocol for any number of features: answers the
``#schema <names>`` handshake with ``#ok``, then one comma-joined value
vector per line with ``0`` or ``1``. The label is 0 iff every key feature
holds ``2``.

Usage: python3 perfbench/child.py KEYS   (KEYS: comma-joined feature indices)
"""

import sys


def main() -> int:
    keys = [int(k) for k in sys.argv[1].split(",")]
    handshake = sys.stdin.readline()
    if not handshake.startswith("#schema "):
        print("#error bad handshake line", flush=True)
        return 1
    n = len(handshake[len("#schema "):].rstrip("\r\n").split(","))
    if any(not 0 <= k < n for k in keys):
        print("#error key index out of range", flush=True)
        return 1
    print("#ok", flush=True)
    out = sys.stdout
    for line in sys.stdin:
        values = line.rstrip("\r\n").split(",")
        if len(values) != n:
            print("#error wrong value count", flush=True)
            return 1
        out.write("0\n" if all(values[k] == "2" for k in keys) else "1\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
