"""Host-speed probe of the helpdp benchmark: fixed work that uses no helpdp code.

``bench.py`` runs ``python3 bench/probe.py SCRATCH_FILE`` between the
processes it times.  The work mixes what the CLI commands spend their time
on: interpreter start, the numpy and scipy.sparse imports, Python loops over
dicts, a JSON-lines file written and read back, and one sparse LU solve of a
forward-only transition matrix.  Its inputs are fixed, so its wall changes
only with the speed of the host.
"""
import json
import random
import sys

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

rng = random.Random(0)
counts: dict[int, int] = {}
for i in range(100_000):
    k = rng.randrange(4096)
    counts[k] = counts.get(k, 0) + i

with open(sys.argv[1], "w", encoding="utf-8") as fh:
    for i in range(10_000):
        fh.write(json.dumps({"s": [i, i % 7, "room"], "a": i % 5, "p": i / 7}) + "\n")
with open(sys.argv[1], encoding="utf-8") as fh:
    rows = [json.loads(line) for line in fh]

n = 20_000
src = np.repeat(np.arange(n), 4)
dst = np.minimum(src + np.random.default_rng(0).integers(1, 50, src.size), n - 1)
step = sp.csc_matrix((np.full(src.size, 0.2), (src, dst)), shape=(n, n))
x = spla.splu((sp.eye(n, format="csc") - step).tocsc()).solve(np.ones(n))
if len(rows) != 10_000 or not np.isfinite(x).all():
    sys.exit("probe computed a wrong result")
