"""Seeded stream-matrix generators for the benchmark workloads.

Two shapes:

* ``uniform``: each cell is nonzero with probability ``density`` and then
  holds 1-50 streams.
* ``zipf`` (heavy-tailed): artist popularity is proportional to
  ``rank ** -1.1``, the number of artists a user picks follows
  Pareto(1.5), and the count in a picked cell follows Pareto(1.2), capped
  at 200.

Both shapes patch every user column to be nonempty, and the CSV form
parses at fee 1.  The same (seed, spec) always gives the same matrix.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class CatalogSpec:
    name: str
    shape: str          # "uniform" or "zipf"
    artists: int
    users: int
    density: float = 0.05   # uniform only


def generate(spec: CatalogSpec, seed: int) -> list[list[int]]:
    """The stream matrix (rows are artists, columns are users)."""
    rng = random.Random(f"{seed}:{spec.name}:{spec.shape}:{spec.artists}x{spec.users}")
    n, m = spec.artists, spec.users
    if spec.shape == "uniform":
        columns = [_uniform_column(rng, n, spec.density) for _ in range(m)]
    elif spec.shape == "zipf":
        cum = list(accumulate((rank + 1) ** -1.1 for rank in range(n)))
        columns = [_zipf_column(rng, n, cum) for _ in range(m)]
    else:
        raise ValueError(f"unknown catalog shape {spec.shape!r}")
    return [[columns[j][i] for j in range(m)] for i in range(n)]


def _uniform_column(rng: random.Random, n: int, density: float) -> list[int]:
    column = [rng.randint(1, 50) if rng.random() < density else 0 for _ in range(n)]
    if not any(column):
        column[rng.randrange(n)] = rng.randint(1, 50)
    return column


def _zipf_column(rng: random.Random, n: int, cum: list[float]) -> list[int]:
    picks = min(n, int(rng.paretovariate(1.5)))
    chosen: set[int] = set()
    while len(chosen) < picks:
        chosen.add(rng.choices(range(n), cum_weights=cum)[0])
    column = [0] * n
    for i in chosen:
        column[i] = min(200, int(rng.paretovariate(1.2)))
    return column


def artist_ids(n: int) -> list[str]:
    return [f"a{i:03d}" for i in range(n)]


def user_ids(m: int) -> list[str]:
    return [f"u{j:05d}" for j in range(m)]


def to_csv(streams: list[list[int]]) -> str:
    users = user_ids(len(streams[0]))
    lines = ["artist," + ",".join(users)]
    for artist, row in zip(artist_ids(len(streams)), streams):
        lines.append(artist + "," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def shape(streams: list[list[int]]) -> dict:
    """Input properties the timings depend on (payout digits are added later)."""
    n, m = len(streams), len(streams[0])
    sets = set()
    totals = []
    for j in range(m):
        sets.add(tuple(i for i in range(n) if streams[i][j]))
        totals.append(sum(streams[i][j] for i in range(n)))
    return {
        "artists": n,
        "users": m,
        "nonzero_cells": sum(1 for row in streams for c in row if c),
        "listened_sets": len(sets),
        "user_total_min": min(totals),
        "user_total_max": max(totals),
    }
