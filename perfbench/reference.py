"""Independent reference values for the benchmark's checks.

The evaluator here contracts the closed-braid tensor network directly and
shares no code with ``gyblink.rep``: every letter is a gate tensor with
``k`` output and ``k`` input legs of size ``d``, each strand factor is
closed by a ``mu`` tensor joining its last leg to its first, and the
network is contracted pairwise in a greedy order with ``np.einsum``. The
catalog weights below are the published constants, written out again so a
wrong weight in the package cannot leak into the reference.

Run ``python3 perfbench/reference.py`` from the repository root to rebuild
``perfbench/reference.json``; the benchmark only reads that file.
"""

from __future__ import annotations

import json
import random
import string
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DATA = HERE / "reference.json"

SQ2 = np.sqrt(2.0)

#: (d, k, m, alpha, beta) of each catalog operator; mu is the identity.
CATALOG = {
    "type1": (2, 3, 1, np.exp(1j * np.pi / 4), 1.0),
    "type2": (2, 3, 1, np.exp(1j * np.pi / 4), 1.0),
    "type3": (2, 3, 1, 1.0, SQ2),
    "r232": (2, 3, 2, 1.0, 2.0 * SQ2),
}

#: Pool seed for the committed words; a run's --seed picks among them.
POOL_SEED = 20120215
WIDE_POOL = 16
CLI_POOL = 12

#: wide-trace grid: operator -> strand counts; every cell runs both lengths.
WIDE_STRANDS = {"type1": (8, 9, 10), "type2": (8, 9, 10), "type3": (8, 9, 10), "r232": (5, 6)}
WIDE_LENGTHS = (20, 40)
#: cli seeded words: largest strand count per operator under the size cap;
#: half of each pool uses exactly that many strands, half fewer.
CLI_STRANDS = {"type1": 8, "type2": 8, "type3": 8, "r232": 6}
CLI_MAX_LEN = 10

#: Named catalog links as (strands, letters); the CLI resolves these names.
LINKS = {
    "unknot": (1, ()),
    "unlink2": (2, ()),
    "unlink3": (3, ()),
    "unlink4": (4, ()),
    "unlink5": (5, ()),
    "unlink6": (6, ()),
    "hopf+": (2, (1, 1)),
    "hopf-": (2, (-1, -1)),
    "trefoil": (2, (1, 1, 1)),
    "figure8": (3, (1, -2, 1, -2)),
}


def factor_count(k: int, m: int, n: int) -> int:
    return k + m * (n - 2) if n >= 2 else k - m


def _contract_pair(a, b):
    (ta, la), (tb, lb) = a, b
    shared = set(la) & set(lb)
    out = [x for x in la if x not in shared] + [x for x in lb if x not in shared]
    names = {lab: string.ascii_letters[i] for i, lab in enumerate(dict.fromkeys(la + lb))}
    spec = "".join(names[x] for x in la) + "," + "".join(names[x] for x in lb) + "->" + "".join(names[x] for x in out)
    return np.einsum(spec, ta, tb, optimize="greedy"), out


def network_trace(r: np.ndarray, d: int, k: int, m: int, n: int, letters, mu=None) -> complex:
    """``tr(rho(b) . mu^(x)N)`` by contracting the closed-braid network."""
    mu = np.eye(d, dtype=np.complex128) if mu is None else np.asarray(mu, dtype=np.complex128)
    gates = {1: r.reshape((d,) * 2 * k), -1: np.linalg.inv(r).reshape((d,) * 2 * k)}
    factors = factor_count(k, m, n)
    current = list(range(factors))
    fresh = factors
    tensors = []
    for g in letters:
        start = m * (abs(g) - 1)
        legs_in = current[start:start + k]
        legs_out = list(range(fresh, fresh + k))
        fresh += k
        current[start:start + k] = legs_out
        tensors.append((gates[1 if g > 0 else -1], legs_out + legs_in))
    scalar = 1.0 + 0.0j
    for j in range(factors):
        if current[j] == j:
            scalar *= np.trace(mu)
        else:
            tensors.append((mu, [j, current[j]]))
    while len(tensors) > 1:
        best = None
        for i in range(len(tensors)):
            for j in range(i + 1, len(tensors)):
                la, lb = tensors[i][1], tensors[j][1]
                if not set(la) & set(lb):
                    continue
                size = d ** len(set(la) ^ set(lb))
                cost = (size - tensors[i][0].size - tensors[j][0].size, i, j)
                if best is None or cost < best:
                    best = cost
        if best is None:
            # disconnected pieces: every remaining tensor is already closed
            for t, legs in tensors:
                assert not legs
                scalar *= complex(t)
            return complex(scalar)
        _, i, j = best
        merged = _contract_pair(tensors[i], tensors[j])
        tensors = [t for idx, t in enumerate(tensors) if idx not in (i, j)] + [merged]
    if tensors:
        t, legs = tensors[0]
        assert not legs
        scalar *= complex(t)
    return complex(scalar)


def raw_value(name: str, r: np.ndarray, n: int, letters) -> complex:
    """The raw invariant: ``alpha^-writhe beta^-n`` times the weighted trace."""
    d, k, m, alpha, beta = CATALOG[name]
    writhe = sum(1 if g > 0 else -1 for g in letters)
    return complex(alpha ** (-writhe) * beta ** (-n) * network_trace(r, d, k, m, n, letters))


def tilde_factor(name: str) -> float:
    """``tr(mu)^(2m - k)`` with the identity mu."""
    d, k, m, _, _ = CATALOG[name]
    return float(d) ** (2 * m - k)


def random_letters(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    if n < 2:
        return ()
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def build() -> dict:
    """Generate the word pools and their reference values."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from gyblink.operators import build_operator

    rng = random.Random(POOL_SEED)
    mats = {name: build_operator(name, 0.0).r for name in CATALOG}
    # The theta families give theta-independent link values; the benchmark
    # relies on that when it draws theta per call, so check it here.
    for name in ("type1", "type2", "type3"):
        letters = random_letters(rng, 4, 10)
        values = [raw_value(name, build_operator(name, t).r, 4, letters) for t in (0.0, 1.1, np.pi)]
        if max(abs(v - values[0]) for v in values) > 1e-10:
            raise SystemExit(f"{name}: values depend on theta for {letters}")
    wide = {}
    for name, strands in WIDE_STRANDS.items():
        for n in strands:
            for length in WIDE_LENGTHS:
                pool = []
                for _ in range(WIDE_POOL):
                    letters = random_letters(rng, n, length)
                    pool.append([list(letters), _pair(raw_value(name, mats[name], n, letters))])
                wide[f"{name}.n{n}.L{length}"] = pool
    links = {
        name: {link: _pair(raw_value(name, mats[name], n, letters)) for link, (n, letters) in LINKS.items()}
        for name in CATALOG
    }
    words = {}
    for name, top in CLI_STRANDS.items():
        pool = []
        for i in range(CLI_POOL):
            n = top if i % 2 else rng.randint(2, top - 1)
            letters = random_letters(rng, n, rng.randint(1, CLI_MAX_LEN))
            pool.append([n, list(letters), _pair(raw_value(name, mats[name], n, letters))])
        words[name] = pool
    return {
        "pool_seed": POOL_SEED,
        "wide": wide,
        "links": links,
        "cli_words": words,
    }


def load() -> dict:
    return json.loads(DATA.read_text())


if __name__ == "__main__":
    DATA.write_text(json.dumps(build(), sort_keys=True) + "\n")
    print(f"wrote {DATA}")
