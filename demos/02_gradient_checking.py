#!/usr/bin/env python3
"""Verify every backward pass against central finite differences.

Each layer kind gets a small float64 instance; the analytic gradient from
backward() is compared elementwise to (f(x+h) - f(x-h)) / 2h at h = 1e-5.
The suite ends with a reduced conv-relu-conv-head model, checked as one
chain from its input to its logits, and with the softmax cross-entropy
gradient against its loss.
"""

import time

from wavecnn.gradcheck import TOLERANCE, run_full_check

start = time.perf_counter()
results = run_full_check(seed=0)
elapsed = time.perf_counter() - start

print(f"{'layer kind':<28s} {'max rel err':>12s}")
for kind, err in results.items():
    print(f"{kind:<28s} {err:>12.3e}  {'ok' if err < TOLERANCE else 'FAIL'}")
print(f"\nworst: {max(results.values()):.3e}  (gate {TOLERANCE:g}), "
      f"checked in {elapsed:.2f} s")
