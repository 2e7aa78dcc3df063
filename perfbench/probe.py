"""Speed probe: a fixed task independent of effectlab.

run.py runs it right before each timed process and scales each sample by
the probes nearest to it, so the reported times do not follow the machine's
speed swings. It has the shape of a short CLI command: an interpreter start,
the numpy import, a Python loop over records and small numpy calls.
"""

import numpy as np

rows = [tuple((i * 7 + j) % 3 for j in range(8)) for i in range(12_000)]
counts = {}
for r in rows:
    counts[r] = counts.get(r, 0) + 1
a = np.array(rows, dtype=np.intp)
acc = 0.0
for k in range(60):
    acc += float(np.bincount(a[:, k % 8] * 3 + a[:, (k + 1) % 8], minlength=9).std())
print(len(counts), acc)
