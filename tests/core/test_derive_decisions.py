"""Every online decision of QoZ's derivation, pinned exactly.

``tests/data/derive_decisions.json`` was generated at the commit *before*
trial compressions started sharing a memoised pass schedule and hoisted
reference terms (PR 13's parent).  For each stand-in field x quality
metric it records what Algorithm 1 and the Table I tuner decided, how
many trials they ran, and a digest of the stream those decisions
produced.  Any optimisation of the derivation has to reproduce all of it
bit for bit — a moved (alpha, beta), a different interpolator at one
level or one extra trial is a behaviour change, not a speed-up.  The
stream digests of the float32 miranda, scale, nyx and hurricane cases
were regenerated once, on purpose, when a relative bound's value range
became the float64 difference of the field's extremes on every route
(no decision or counter moved; cesm, rtm and float64 kept theirs).

Regenerate ONLY against a revision whose decisions are the ones being
pinned:

    PYTHONPATH=src python tests/core/test_derive_decisions.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.core.qoz import QoZ
from repro.datasets import get_dataset

PINNED = pathlib.Path(__file__).parent.parent / "data" / "derive_decisions.json"
REL = 1e-3
METRICS = ("cr", "psnr", "ssim", "ac")
#: benchmarks/conftest.py BENCH_SHAPES (cesm is the 2-D field), plus one
#: float64 field so the cast-free bound check is pinned too
FIELDS = (
    ("rtm", (48, 64, 64), "float32"),
    ("miranda", (48, 64, 64), "float32"),
    ("cesm", (256, 512), "float32"),
    ("scale", (16, 128, 128), "float32"),
    ("nyx", (64, 64, 64), "float32"),
    ("hurricane", (24, 64, 64), "float32"),
    ("hurricane", (24, 64, 64), "float64"),
)


def case_id(name, shape, dtype, metric):
    return f"{name}-{'x'.join(map(str, shape))}-{dtype}-{metric}"


def observe(name, shape, dtype, metric):
    """Compress one field and report every decision that shaped the stream."""
    data = get_dataset(name, shape=shape, seed=0).astype(dtype)
    codec = QoZ(metric=metric)
    blob = codec.compress(data, rel_error_bound=REL)
    report = codec.last_report
    return {
        "alpha": report.alpha,
        "beta": report.beta,
        "interpolators": {
            str(level): list(choice)
            for level, choice in sorted(report.selection.per_level.items())
        },
        "trial_compressions": report.tuning.trial_compressions,
        "cache_hits": report.tuning.cache_hits,
        "extra_trials": report.tuning.extra_trials,
        "stream_blake2s": hashlib.blake2s(blob).hexdigest(),
    }


CASES = [(*f, m) for f in FIELDS for m in METRICS]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(case_id(*c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_id(*c))
def test_decisions_and_stream_match_the_pinned_record(pinned, case):
    assert observe(*case) == pinned[case_id(*case)]


if __name__ == "__main__":
    PINNED.write_text(
        json.dumps({case_id(*c): observe(*c) for c in CASES}, indent=1) + "\n"
    )
    print(f"wrote {len(CASES)} cases to {PINNED}")
