"""Write the seeded problem files that CI runs at scale.

    python tools/scale_files.py DIR

writes four files into DIR (which must exist), each from a fixed seed so
the same bytes come back on every run:

* ``chain_m3n300.json``: a 3-state ``sum_of_symbols`` chain with n = 300
  (laws of integers 1-9 over their sum, ``random.Random(1)``), unit
  weights, thresholds 30 and 75.  It runs the kernel paths at the scale
  of the ROADMAP baseline: Delta's entries reach thousands of bits.
* ``dense_m2n16.json``: a dense m = 2, n = 16 measure (2^16 cells, some
  null) under ``sum_of_symbols`` (``random.Random(16)``).  It runs the
  dense reader, eta_bar rows, profile and sampler at scale, and psi and
  its decomposition in integers on a 2^16-cell table.
* ``indicator_m2n16.json``: a 2-state n = 16 chain with an ``indicator``
  (``random.Random(16)``).  It runs the table path of a chain at scale:
  the expanded table's profile and the chain walk that reads table
  indices from the kernels.
* ``lp_m2n8.json``: an m = 2, n = 8 table with v = 1/2 (256 words,
  ``random.Random(8)``), past the 9-word golden LPs.

Needs ``hammix`` importable (installed, or ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from hammix import instances
from hammix.rational import rat_str


def _markov(spec) -> dict:
    return {
        "markov": {
            "init": [rat_str(p) for p in spec.initial],
            "transitions": [[[rat_str(p) for p in row] for row in t] for t in spec.transitions],
        }
    }


def _weights(rng: random.Random, n: int) -> list[str]:
    return [rat_str(x) for x in instances.random_weights(rng, n)]


def chain_m3n300() -> dict:
    spec = instances.random_markov_spec(random.Random(1), 3, 300)
    return {
        "alphabet": 3,
        "n": 300,
        "weights": ["1"] * 300,
        "function": "sum_of_symbols",
        "measure": _markov(spec),
        "thresholds": [30, 75],
    }


def dense_m2n16() -> dict:
    rng = random.Random(16)
    measure = instances.random_dense_measure(rng, 2, 16)
    return {
        "alphabet": 2,
        "n": 16,
        "weights": _weights(rng, 16),
        "function": "sum_of_symbols",
        "measure": {"dense": [rat_str(p) for p in measure.probabilities]},
        "thresholds": [1.0, 2.0, 4.0],
        "simulation": {"sample_count": 10000, "seed": 16, "thresholds": [1.0, 2.0, 4.0]},
    }


def indicator_m2n16() -> dict:
    rng = random.Random(16)
    spec = instances.random_markov_spec(rng, 2, 16)
    return {
        "alphabet": 2,
        "n": 16,
        "weights": _weights(rng, 16),
        "function": "indicator:" + "".join(str(rng.randrange(2)) for _ in range(16)),
        "measure": _markov(spec),
        "thresholds": [0.25, 0.5, 0.75],
        "simulation": {"sample_count": 10000, "seed": 16, "thresholds": [0.25, 0.5, 0.75]},
    }


def lp_m2n8() -> dict:
    rng = random.Random(8)
    table = instances.random_table(rng, 2, 8)
    return {
        "alphabet": 2,
        "n": 8,
        "weights": _weights(rng, 8),
        "function": {"table": [rat_str(x) for x in table.values]},
        "v": "1/2",
    }


def main(directory: str) -> None:
    for build in (chain_m3n300, dense_m2n16, indicator_m2n16, lp_m2n8):
        with open(Path(directory) / f"{build.__name__}.json", "w") as handle:
            json.dump(build(), handle)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
