"""A fixed reference computation that shares no code with dtrkit.

The benchmark machine's speed drifts by tens of percent within seconds and
over minutes, as other tenants load the shared cores.  Timing this kernel
between the CLI calls gives the machine's momentary speed, and the
end-to-end times are reported as multiples of it (unit ``ref``), which
cancels most of the drift.  The kernel mixes what the program does:
interpreter-bound counting in dicts and a per-row loop of small numpy dot
products, and memory-bound row gathers and sparse products over a few MiB
(more than one core's L2 cache, small next to the workloads' peak RSS).  It
must never change: its cost is part of every end-to-end number.

``setup_s`` is the one end-to-end time given in seconds: set-up time in
units of this kernel, times ``NOMINAL_S``, the kernel's median time on the
2-core shared Xeon VM the bounds were set on.  It reads as seconds on that
machine at its median speed.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import scipy.sparse as sp

NOMINAL_S = 0.14


def reference() -> float:
    rng = random.Random(0)
    docs = [[f"w{rng.randrange(1500)}" for _ in range(300)] for _ in range(60)]
    counts = [Counter(doc) for doc in docs]
    total: Counter = Counter()
    for c in counts:
        total.update(c)
    ranked = sorted(total.items(), key=lambda kv: (-kv[1], kv[0]))
    index = {term: i for i, (term, _) in enumerate(ranked)}
    x = np.zeros((len(docs), len(index)))
    for r, c in enumerate(counts):
        for term, n in c.items():
            x[r, index[term]] = n
    y = np.where(np.arange(len(docs)) % 2 == 0, 1.0, -1.0)
    w = np.zeros(x.shape[1])
    for _ in range(8):
        for i in range(len(docs)):
            if y[i] * (w @ x[i]) < 1.0:
                w += 0.001 * y[i] * x[i]

    gen = np.random.default_rng(0)
    dense = gen.random((1500, 250))  # 3 MiB
    rows = gen.integers(0, dense.shape[0], size=(150, 60))
    s = float(w.sum())
    for _ in range(10):
        for r in rows:
            s += float(dense[r].sum(axis=0) @ dense[r[0]])
    nnz = 100_000
    sparse = sp.csr_matrix(
        (gen.random(nnz), (gen.integers(0, 10_000, nnz), gen.integers(0, 1000, nnz))),
        shape=(10_000, 1000),
    )
    ones_in, ones_out = np.ones(1000), np.ones(10_000)
    for _ in range(150):
        s += float((sparse @ ones_in).sum()) + float((sparse.T @ ones_out).sum())
    return s
