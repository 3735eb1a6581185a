"""Fixed reference task that measures how fast the host runs right now.

    python3 perfbench/reference.py

It does the same kind of work as an op (a fresh interpreter, event-heap
churn, small dicts, canonical JSON out and back) on fixed data, imports
nothing from the program, and so runs the same on every commit. The
benchmark runs it between ops and expresses each op's time in units of
it (see run.py), which cancels the drift in host speed that a shared
machine shows from one minute to the next.
"""

import heapq
import json
import random

rng = random.Random(0)
heap = []
for seq in range(12_000):
    record = {"seq": seq, "time": rng.randrange(10**6), "kind": rng.choice("abcdef"),
              "msg_id": seq, "path": ["dev--cloud", "cloud--dev"], "size": rng.randrange(64)}
    heapq.heappush(heap, (record["time"], seq, record))
records = [heapq.heappop(heap)[2] for _ in range(len(heap))]
text = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
kinds: dict[str, int] = {}
for line in text.splitlines():
    kind = json.loads(line)["kind"]
    kinds[kind] = kinds.get(kind, 0) + 1
