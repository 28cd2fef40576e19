"""Reference program for machine speed: fixed pure-Python work, no streamshare.

The benchmark runs it as a child process after every command and scales
a run's times by ``REF_S / (its median time)``, so that the reported
seconds do not move with the speed of a shared machine.  Like a CLI command, it pays
for interpreter start-up, exact rational sums, dict updates and JSON
rendering.  Changing this file changes every scaled metric.
"""
import json
import random
from fractions import Fraction

rng = random.Random(7)
rows = [[rng.randint(1, 50) if rng.random() < 0.3 else 0 for _ in range(40)] for _ in range(300)]
shares = [Fraction(0)] * 40
for row in rows:
    total = sum(row) or 1
    for i, count in enumerate(row):
        if count:
            shares[i] += Fraction(count, total)
table: dict[int, int] = {}
for k in range(60000):
    key = (k * 7919) % 5003
    table[key] = table.get(key, 0) + k
print(len(json.dumps({str(i): str(x) for i, x in enumerate(shares)})), len(table))
