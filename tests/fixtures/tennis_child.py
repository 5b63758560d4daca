"""Line-protocol classifier child used by the external-backend tests.

Speaks the wire protocol on stdin/stdout: handshake line `#schema <names>`
answered with `#ok`, then one comma-joined value vector per line answered
with `0` or `1`. Implements the play-tennis tree. A mode argument makes it
misbehave on purpose:

    ok             normal operation (default)
    bad-handshake  answer the handshake with something else
    bad-reply      answer the first query with text instead of a label
    die            exit silently right after the handshake
    die-now        exit before reading anything
    slow           sleep 10 s before answering each query
    chunked        answer in two writes per line, ending lines with CRLF
    die-after N    answer N queries, then exit without reading on
    record FILE    append each query line to FILE before answering it, and
                   ignore SIGTERM, so every line sent is recorded by the time
                   the engine closes stdin and reaps the child
"""

import signal
import sys
import time


def classify(values):
    outlook, humidity, wind = values
    if humidity == "normal" and outlook == "sunny":
        return 1
    if outlook == "overcast":
        return 1
    if wind == "weak" and outlook == "rain":
        return 1
    return 0


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    if mode == "die-now":
        return
    handshake = sys.stdin.readline()
    if not handshake.startswith("#schema "):
        print("#error bad handshake line", flush=True)
        return
    if mode == "bad-handshake":
        print("#nope", flush=True)
        return
    if mode == "chunked":
        out = sys.stdout
        for piece in ("#o", "k\r\n"):
            out.write(piece)
            out.flush()
        for line in sys.stdin:
            label = classify(line.rstrip("\r\n").split(","))
            for piece in (str(label), "\r\n"):
                out.write(piece)
                out.flush()
                time.sleep(0.001)
        return
    print("#ok", flush=True)
    if mode == "die":
        return
    left = int(sys.argv[2]) if mode == "die-after" else None
    record = None
    if mode == "record":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        record = open(sys.argv[2], "a", encoding="utf-8")
    for line in sys.stdin:
        query = line.rstrip("\r\n")
        if not query:
            continue
        if left is not None:
            if not left:
                return
            left -= 1
        if record is not None:
            record.write(query + "\n")
            record.flush()
        if mode == "slow":
            time.sleep(10)
        if mode == "bad-reply":
            print("maybe", flush=True)
            continue
        print(classify(query.split(",")), flush=True)
    if record is not None:
        record.close()


if __name__ == "__main__":
    main()
