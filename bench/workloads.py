"""Workload definitions: the argv lists each workload hands to `quotbwb.cli.run`.

The program receives only argv.  Every instance of `hyper_batch` is drawn
from a finite space (`hyper_space`) so that each one has a pinned payload
hash, whatever the seed.
"""

import random

KOSZUL_SCAN = [["scan", "--n", "2", "--r", "1", "--d", "2", "--m", "6", "--jobs", "1"]]

# The worked examples repeat so that the per-instance percentiles rest on
# several samples a pass; after the first round they run on warm memos, so
# they time mostly the pool's start-up on tiny pages.
SWEEP_POOL = [
    ["examples", "sharp", "--jobs", "2"],
    ["examples", "sym2", "--jobs", "2"],
] * 2 + [
    ["verify", "thm41", "--n", "2", "--r", "1", "--d", "1", "--m", "2",
     "--m-max", "5", "--eta", "1", "--rho", "1", "--jobs", "2"],
]

HYPER_COUNT = 700
SX_SHARE = 0.15
RANK_K_CAP = 24
INSERT_DEGREE_CAP = 3
E_RANGE = range(-3, 4)
# Nonempty partitions of size at most INSERT_DEGREE_CAP.
LAMBDAS = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))


def rank_k(n: int, r: int, d: int, m: int) -> int:
    """Rank 2*k1*r2 of the cutting bundle, from the embedding formulas
    (trivial splitting, so b = 0)."""
    k1 = (n - r) * m - d
    r2 = r * (m + 1) + d
    return 2 * k1 * r2


def setups() -> list[tuple[int, int, int, int]]:
    """(n, r, d, m) with trivial splitting, n in {2,3}, d in {1,2},
    m in {d, d+1}, under the rank cap."""
    out = []
    for n in (2, 3):
        for r in range(1, n):
            for d in (1, 2):
                for m in (d, d + 1):
                    if rank_k(n, r, d, m) <= RANK_K_CAP:
                        out.append((n, r, d, m))
    return out


def _fmt(lam) -> str:
    return ",".join(map(str, lam))


def insert_lists() -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """One or two (e, lam) inserts, unordered, of total degree at most the cap."""
    singles = [(e, lam) for e in E_RANGE for lam in LAMBDAS]
    out = [(s,) for s in singles]
    for i, a in enumerate(singles):
        for b in singles[i:]:
            if sum(a[1]) + sum(b[1]) <= INSERT_DEGREE_CAP:
                out.append((a, b))
    return out


def _setup_argv(n, r, d, m) -> list[str]:
    return ["--n", str(n), "--r", str(r), "--d", str(d), "--m", str(m)]


def hyper_argv(setup, inserts) -> list[str]:
    return (["hyper"] + _setup_argv(*setup)
            + [f"--insert={e}:{_fmt(lam)}" for e, lam in inserts] + ["--jobs", "1"])


def sx_argv(setup, lam) -> list[str]:
    return ["verify", "sx"] + _setup_argv(*setup) + ["--lam", _fmt(lam), "--jobs", "1"]


def hyper_space() -> tuple[list[list[str]], list[list[str]]]:
    """Every instance the generator can draw: (hyper argvs, verify-sx argvs)."""
    hyper = [hyper_argv(s, ins) for s in setups() for ins in insert_lists()]
    sx = [sx_argv(s, lam) for s in setups() for lam in LAMBDAS]
    return hyper, sx


def hyper_batch(seed: int, count: int = HYPER_COUNT) -> list[list[str]]:
    """`count` instances drawn with replacement; about SX_SHARE are verify sx."""
    rng = random.Random(seed)
    hyper, sx = hyper_space()
    return [rng.choice(sx) if rng.random() < SX_SHARE else rng.choice(hyper)
            for _ in range(count)]
