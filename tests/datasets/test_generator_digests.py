"""The synthetic fields, pinned bit for bit.

Every benchmark comparison and every pinned stream
(``tests/data/derive_decisions.json``) stands on the arrays these
generators return, so a rewrite of a generator (to save memory, say) must
return the same bits.  The digests below were generated before the
generators were rewritten to compute in place, and cover:

- every dataset at the benchmark suite's padded shapes (each suite input
  is a window into a field ``WINDOW_PAD`` = 8 larger per axis), seeds 0
  and 1;
- a few odd shapes, rtm in 2-D among them;
- ``gaussian_random_field`` in 1-D, 2-D and 4-D at slopes 2, 3 and 7;
- both pressure buffers of ``WaveSimulator`` after some steps.

Regenerate ONLY against a revision whose fields are the ones being
pinned; it prints the table to paste below:

    PYTHONPATH=src python tests/datasets/test_generator_digests.py
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import WaveSimulator, gaussian_random_field, get_dataset

SEEDS = (0, 1)

#: benchmarks/suite/suite_workloads.py PROFILES["full"] plus WINDOW_PAD,
#: and the service workload's 64^3 fields padded the same way
SUITE_SHAPES = (
    ("nyx", (136, 136, 136)),
    ("nyx", (72, 72, 72)),
    ("miranda", (104, 104, 104)),
    ("miranda", (56, 72, 72)),
    ("cesm", (264, 520)),
    ("scale", (24, 136, 136)),
    ("hurricane", (32, 72, 72)),
    ("hurricane", (72, 72, 72)),
    ("rtm", (56, 72, 72)),
)

ODD_SHAPES = (
    ("nyx", (17, 23, 9)),
    ("miranda", (15, 20, 11)),
    ("cesm", (37, 51)),
    ("scale", (5, 31, 29)),
    ("hurricane", (7, 19, 23)),
    ("rtm", (13, 17, 21)),
    ("rtm", (33, 41)),
)

GRF_SHAPES = ((1001,), (48, 37), (6, 7, 8, 9))
GRF_SLOPES = (2.0, 3.0, 7.0)

#: (shape, steps) of the wave solver runs whose ``p`` and ``p_prev`` are
#: pinned
WAVE_RUNS = (((40, 52), 37), ((14, 19, 23), 16))


def digest(a: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str((a.dtype.str, a.shape)).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def shape_id(shape):
    return "x".join(map(str, shape))


def _wave(shape, steps, buffer):
    sim = WaveSimulator(shape, seed=3)
    sim.step(steps)
    return getattr(sim, buffer)


#: (case id, generator, its arguments) for every pinned array
CASES = [
    (f"{name}-{shape_id(shape)}-s{seed}", get_dataset, (name, shape, seed))
    for name, shape in SUITE_SHAPES + ODD_SHAPES
    for seed in SEEDS
] + [
    (f"grf-{shape_id(shape)}-k{slope:g}-s{seed}", gaussian_random_field,
     (shape, slope, seed))
    for shape in GRF_SHAPES
    for slope in GRF_SLOPES
    for seed in SEEDS
] + [
    (f"wave-{shape_id(shape)}-n{steps}-{buffer}", _wave, (shape, steps, buffer))
    for shape, steps in WAVE_RUNS
    for buffer in ("p", "p_prev")
]

PINNED = {
    "nyx-136x136x136-s0": "45c307c1fb6c1fc5846df8696588843b",
    "nyx-136x136x136-s1": "f9d43666182661cd31ce14c6e41c6900",
    "nyx-72x72x72-s0": "ee53cf31e0b819e1471bf467390a4144",
    "nyx-72x72x72-s1": "56b208eaa90d7c056145560cac812b8c",
    "miranda-104x104x104-s0": "52a00afc2924c8fe0cc28a2f3b9abe4d",
    "miranda-104x104x104-s1": "2b1c22dd9d29b68b85d669cf74e843af",
    "miranda-56x72x72-s0": "8cec1fbe0fafe877ce3d6b33c8a118a2",
    "miranda-56x72x72-s1": "95cc23e8ea07f0e0fc4b3d09334639e7",
    "cesm-264x520-s0": "417f4b533592c4852ba19e7b7bcd6566",
    "cesm-264x520-s1": "db743d084f3121f5ccc6c507a8193756",
    "scale-24x136x136-s0": "1048074ac487f4eed739dac000ccd6c5",
    "scale-24x136x136-s1": "9e0051975123dbbeb86e1064f95abe07",
    "hurricane-32x72x72-s0": "d629191524a8b2ee13721c1656aa6ccf",
    "hurricane-32x72x72-s1": "e3a904e7c2981ec95ad2d2fe19c5301f",
    "hurricane-72x72x72-s0": "7c2ca4d2ab42dbac469783966eeb64f9",
    "hurricane-72x72x72-s1": "397aa2387529fcc65ca874fe95686b5a",
    "rtm-56x72x72-s0": "862c623ef055f7f707e220d1dcfd3d8c",
    "rtm-56x72x72-s1": "6f9a71db688ca062018b4fc900e46be5",
    "nyx-17x23x9-s0": "1236d34b2449ddb2d3f2ee1abffa9c94",
    "nyx-17x23x9-s1": "b1f7efa7f5b4b89e5fde21780fe7cd85",
    "miranda-15x20x11-s0": "fa818e3f8a39698c6e72423e4aaca8b8",
    "miranda-15x20x11-s1": "b6dc92d14c06825e5e05a7cef82c61e1",
    "cesm-37x51-s0": "994f8a8e158d5492349b3f60fa6c6efc",
    "cesm-37x51-s1": "74aaaf47f666cbe8773e5cdc8acb06a0",
    "scale-5x31x29-s0": "9ec40acc609c866a5c4e53769da7d884",
    "scale-5x31x29-s1": "f218091697bd288729aaa35d22b0e5d2",
    "hurricane-7x19x23-s0": "c8346b82f854c1e3e720ce4dcf2bd732",
    "hurricane-7x19x23-s1": "92e46ad4af31825e0600ee01f842024e",
    "rtm-13x17x21-s0": "2cf3206ad759a08b6b85a9aa5722cb07",
    "rtm-13x17x21-s1": "6010b45c53b5011b5280650b36c96a5f",
    "rtm-33x41-s0": "1dbd5f51cc6d4fe7c37cabdd80cc0f18",
    "rtm-33x41-s1": "ad55f2f20c08ee2001cd1add2b9979a3",
    "grf-1001-k2-s0": "ca42a343b5aa2ab70662a6fa39b17581",
    "grf-1001-k2-s1": "71d9730e680322e8cb676ac7a3a55af7",
    "grf-1001-k3-s0": "40433e617ee0c91581777c53e03544fd",
    "grf-1001-k3-s1": "4353cac2f5aef58cb8d807f7eec8b488",
    "grf-1001-k7-s0": "327740673768889d39bc04ebb3e74cb0",
    "grf-1001-k7-s1": "94a200e98212c5acf22c1ea0e9b08ab8",
    "grf-48x37-k2-s0": "f60e2ac8b0c64ed24ca39a0f72c81b3e",
    "grf-48x37-k2-s1": "c85c962c6ad47f53ac863a639f784456",
    "grf-48x37-k3-s0": "188db772858e9ae76f6bddbc17d8c040",
    "grf-48x37-k3-s1": "1298917822922b970cdf2385529cf50c",
    "grf-48x37-k7-s0": "a689c15017fcbc4eca97fbc93ea40591",
    "grf-48x37-k7-s1": "e3247013afc7f9449ddcd312cf62562e",
    "grf-6x7x8x9-k2-s0": "445863daa448c780b55c903e13dfd24f",
    "grf-6x7x8x9-k2-s1": "b04f62631fe339acb0ab1afe32c742c6",
    "grf-6x7x8x9-k3-s0": "ff676df2aee7e1b56706aa9ed9ed5ea2",
    "grf-6x7x8x9-k3-s1": "915b76abd1193a0c6b990de03fe1c47f",
    "grf-6x7x8x9-k7-s0": "254b32908ba15f1c7c0422bd45800887",
    "grf-6x7x8x9-k7-s1": "92debf472997002433abcf9d9cb62a91",
    "wave-40x52-n37-p": "f6abba76db09ce0c10395dc561e6c9f2",
    "wave-40x52-n37-p_prev": "dc11d4594efb86c66914b7f287defb7d",
    "wave-14x19x23-n16-p": "1bee11e011306ba387427f66cd250d9b",
    "wave-14x19x23-n16-p_prev": "0a526fb3a9075534241b3c4769dfa736",
}


@pytest.mark.parametrize("case, generate, args", CASES,
                         ids=[c[0] for c in CASES])
def test_generator_bits(case, generate, args):
    assert digest(generate(*args)) == PINNED[case]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(c[0] for c in CASES)


if __name__ == "__main__":
    print("PINNED = {")
    for case, generate, args in CASES:
        print(f'    "{case}": "{digest(generate(*args))}",')
    print("}")
