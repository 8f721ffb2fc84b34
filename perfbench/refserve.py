"""The serving yardstick: a fixed JSONL service that uses no ``repro`` code.

    python3 perfbench/refserve.py FOLDER

For each request line (``{"document": ..., "id": ...}``) it decodes the
request, does a fixed amount of interpreter work on the document (a tag
histogram, encoded as JSON over and over), writes the encoded body to a
new file in ``FOLDER`` (temporary name, then rename, as a disk cache
entry is written), and answers ``{"ok": true, "id": ...}``.  EOF on
stdin ends it.

The benchmark feeds it the same requests, at the same rate and on the
same CPUs, as the ``repro serve`` child, in segments that alternate with
the real ones.  Served latency on a shared host drifts with the cost of
waking an idle CPU, of a cold cache and of file creation; this service
pays the same costs, so its latency measures the host, and the real
latency can be read at a reference host's.
"""

import json
import os
import sys

#: rounds of the fixed work per request, about 2 ms of interpreter
#: time on the reference host: with as much work as a served
#: validation, host drift moves both latencies alike (with half as
#: much, the ratio's spread over twelve runs was 10% instead of 6%)
ROUNDS = 150


def work(text: str) -> str:
    tags: dict = {}
    for part in text.split("<"):
        name = part.split(">", 1)[0].split(" ", 1)[0]
        tags[name] = tags.get(name, 0) + 1
    body = ""
    for _ in range(ROUNDS):
        body = json.dumps(sorted(tags.items()))
        index = {f"{k}:{i}": i for i, k in enumerate(tags) for _ in range(3)}
    return body + str(len(index))


def main(folder: str) -> None:
    for n, line in enumerate(sys.stdin):
        req = json.loads(line)
        body = work(req["document"])
        sub = os.path.join(folder, f"{n % 256:02x}")
        os.makedirs(sub, exist_ok=True)
        path = os.path.join(sub, f"{n}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(body)
        os.replace(path + ".tmp", path)
        sys.stdout.write(json.dumps({"ok": True, "id": req["id"]}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])
