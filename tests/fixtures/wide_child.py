"""Line-protocol classifier child over any schema of eight or more features.

Answers the ``#schema <names>`` handshake with ``#ok``, then labels each
comma-joined value vector: 0 iff features 2, 5 and 7 (1-based) all hold
their value ``v2``, or feature 8 holds ``v1`` and feature 3 holds ``v2``;
1 otherwise. ``WIDE_RULES`` in tests/test_cli.py is the same classifier as
a rule list.

    python wide_child.py              normal operation
    python wide_child.py record FILE  also append each query line to FILE
                                      before answering it, ignoring SIGTERM
                                      so that no line sent goes unrecorded
"""

import signal
import sys


def classify(values):
    if values[1] == values[4] == values[6] == "v2":
        return 0
    if values[7] == "v1" and values[2] == "v2":
        return 0
    return 1


def main():
    record = None
    if sys.argv[1:2] == ["record"]:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        record = open(sys.argv[2], "a", encoding="utf-8")
    if not sys.stdin.readline().startswith("#schema "):
        print("#error bad handshake line", flush=True)
        return
    print("#ok", flush=True)
    for line in sys.stdin:
        query = line.rstrip("\r\n")
        if record is not None:
            record.write(query + "\n")
            record.flush()
        print(classify(query.split(",")), flush=True)
    if record is not None:
        record.close()


if __name__ == "__main__":
    main()
