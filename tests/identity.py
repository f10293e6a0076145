"""Print two sha256 digests that pin what the library decides and sweeps.

    PYTHONPATH=src python tests/identity.py

- ``decisions``: the verdict and witness of ``debruijn_injective`` on every
  table of diameter 1 to 4, then on 3,600 seeded tables of diameter 1 to 10:
  at each diameter 120 random tables, 120 induced by one pattern (random
  where the diameter has no pattern) and 120 one-swap near misses of those.
- ``sweep``: ``scan_unit`` on every unit of ``sweep_units(d)``, d = 1..5.

Only public names are used, so the same script, run with ``PYTHONPATH``
pointing at another checkout's ``src``, tells whether a change keeps both.
It takes about 15 s on a 2-vCPU machine; pytest does not collect it.
"""

import hashlib
import random

from revca import build_mixture, debruijn_injective, induce
from revca.injectivity import scan_unit, sweep_units
from revca.patterns import enumerate_extended, generate_all_patterns
from revca.rules import from_wolfram

PER_KIND = 120


def _seeded_tables(d, rng):
    size = 1 << d
    randoms = [rng.getrandbits(size) for _ in range(PER_KIND)]
    patterns = list(generate_all_patterns(d)) + list(enumerate_extended(d))
    induced = ([induce(build_mixture([rng.choice(patterns)])).wolfram for _ in range(PER_KIND)]
               if patterns else [rng.getrandbits(size) for _ in range(PER_KIND)])
    near = []
    for w in induced:
        ones = [v for v in range(size) if w >> v & 1]
        zeros = [v for v in range(size) if not w >> v & 1]
        near.append(w ^ 1 << rng.choice(ones) ^ 1 << rng.choice(zeros)
                    if ones and zeros else w)
    return randoms + induced + near


def decisions_digest():
    digest = hashlib.sha256()
    rng = random.Random(20231)
    tables = [(d, w) for d in range(1, 5) for w in range(1 << (1 << d))]
    tables += [(d, w) for d in range(1, 11) for w in _seeded_tables(d, rng)]
    for d, w in tables:
        verdict = debruijn_injective(from_wolfram(d, w))
        digest.update(f"{d} {w} {verdict.injective} {verdict.witness}\n".encode())
    return digest.hexdigest(), len(tables)


def sweep_digest():
    digest = hashlib.sha256()
    count = 0
    for d in range(1, 6):
        for unit in sweep_units(d):
            digest.update(f"{d} {tuple(unit)} {scan_unit(d, unit)}\n".encode())
            count += 1
    return digest.hexdigest(), count


if __name__ == "__main__":
    for name, (hexdigest, count) in (("decisions", decisions_digest()),
                                     ("sweep", sweep_digest())):
        print(f"{name} {hexdigest} ({count})")
