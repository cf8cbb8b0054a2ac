"""The paper's claims as tests: one row per table or figure.

The reproduced result is an ordering, not absolute numbers (EXPERIMENTS.md
§5): QoZ at or above SZ3 on compression ratio at one bound (Table III),
every error inside the bound (Fig. 7), each Fig. 12 ingredient adding,
each Table I mode holding its own metric, and auto-tuning on the upper
envelope of the fixed (alpha, beta) settings (Fig. 13).  Each test is
named after its table or figure.

A claim that does not hold today is ``xfail(strict=True)`` with its
measured numbers in the reason: a change that fixes it has to turn it
green here, and a change that breaks a passing ordering fails tier-1.

Every measurement is one :func:`repro.analysis.evaluate_once`, cached per
(codec, field, shape, bound), so claims that share a run share it.
Tier-1 runs the stand-ins at small shapes, except Table III's miranda
rows, which run at 128^3: the deficit only appears from there up.
``pytest tests/paper -m soak`` runs the Table III rows at 128^3 for the
other fields (CESM at its default 450x900) and miranda at the paper's
256x384x384 (about 1.7 GB peak, a minute).

Fig. 11 (images at one compression ratio) has no row:
``benchmarks/bench_fig11_visual_quality.py`` writes them for the eye.
Table IV is speed, measured by ``benchmarks/bench_table4_speed.py`` and
the suite (``benchmarks/suite/``).
"""

import ast
import functools
import pathlib

import pytest

from repro import QoZ, SZ2, SZ3
from repro.analysis import evaluate_once
from repro.datasets import get_dataset

CODECS = {
    "sz2": SZ2,
    "sz3": SZ3,
    "sz3 cubic": lambda: SZ3(method="cubic"),
    **{
        f"qoz {m}": functools.partial(QoZ, metric=m)
        for m in ("cr", "psnr", "ssim", "ac")
    },
    # Fig. 12: SZ3 plus anchor points (AP), then sampled global selection
    # (S), then level-wise selection (LIS); full QoZ is "qoz psnr"
    "sz3+AP": lambda: QoZ(selection="none", tune=False),
    "sz3+AP+S": lambda: QoZ(selection="global", tune=False),
    "sz3+AP+S+LIS": lambda: QoZ(selection="level", tune=False),
    # Fig. 13: the fixed (alpha, beta) settings
    "a=1,b=1": lambda: QoZ(alpha=1.0, beta=1.0),
    "a=1.5,b=3": lambda: QoZ(alpha=1.5, beta=3.0),
    "a=2,b=4": lambda: QoZ(alpha=2.0, beta=4.0),
}

#: tier-1 stand-in shapes (EXPERIMENTS.md §1 gives the paper's)
SHAPES = {
    "miranda": (48, 64, 64),
    "nyx": (64, 64, 64),
    "hurricane": (24, 64, 64),
    "cesm": (256, 512),
}
CUBE = (128, 128, 128)


@functools.lru_cache(maxsize=4)
def _field(name, shape):
    return get_dataset(name, shape=shape, seed=0)


@functools.lru_cache(maxsize=None)
def point(codec, name, shape, rel_eb, ssim=False):
    """One evaluate_once of ``CODECS[codec]`` on a seed-0 stand-in."""
    return evaluate_once(
        CODECS[codec](), _field(name, shape), rel_eb, compute_ssim=ssim
    )


def fails_today(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


def row(name, shape, rel_eb, *marks):
    return pytest.param(
        name, shape, rel_eb, marks=marks,
        id=f"{name}-{'x'.join(map(str, shape))}-{rel_eb:g}",
    )


SOAK = pytest.mark.soak
SMALL = [row(n, SHAPES[n], e) for n in ("nyx", "hurricane", "cesm")
         for e in (1e-2, 1e-3)]
SOAK_CUBES = [row(n, CUBE if n != "cesm" else (450, 900), e, SOAK)
              for n in ("nyx", "hurricane", "scale", "cesm")
              for e in (1e-2, 1e-3)]

TABLE3_QOZ = SMALL + SOAK_CUBES + [
    row("miranda", CUBE, 1e-2, fails_today(
        "QoZ 525.3 vs SZ3 auto 597.9 (0.879x): the 8-corner sample picks "
        "the wrong interpolator and order (ROADMAP 1)")),
    row("miranda", CUBE, 1e-3, fails_today(
        "QoZ 72.3 vs SZ3 cubic 155.0 (0.467x) (ROADMAP 1)")),
    row("miranda", (256, 384, 384), 1e-2, SOAK),
    row("miranda", (256, 384, 384), 1e-3, SOAK, fails_today(
        "QoZ 712.3 vs SZ3 cubic 813.2 (0.876x) at the paper's shape "
        "(ROADMAP 1)")),
    row("rtm", CUBE, 1e-2, SOAK, fails_today(
        "QoZ 13,888 vs SZ3 auto 18,809 (0.738x); the 604-byte stream is "
        "60 % fixed sections, so this row measures overhead (ROADMAP 1(f))")),
    row("rtm", CUBE, 1e-3, SOAK, fails_today(
        "QoZ 7,424 vs SZ3 cubic 9,709 (0.765x) (ROADMAP 1(f))")),
]


@pytest.mark.parametrize("name, shape, rel_eb", TABLE3_QOZ)
def test_table3_qoz_leads_sz3(name, shape, rel_eb):
    """QoZ(cr) CR >= max(SZ3 auto, SZ3 cubic) less 1 % on miranda (the
    paper's largest gain) and 2 % elsewhere, at one value-range bound."""
    qoz = point("qoz cr", name, shape, rel_eb).compression_ratio
    sz3 = max(point(c, name, shape, rel_eb).compression_ratio
              for c in ("sz3", "sz3 cubic"))
    slack = 0.01 if name == "miranda" else 0.02
    assert qoz >= (1 - slack) * sz3, f"QoZ {qoz:.1f} vs SZ3 {sz3:.1f}"


@pytest.mark.parametrize(
    "name, shape, rel_eb",
    SMALL + SOAK_CUBES + [row(n, CUBE, e, SOAK) for n in ("miranda", "rtm")
                          for e in (1e-2, 1e-3)],
)
def test_table3_sz3_leads_sz2(name, shape, rel_eb):
    sz3 = point("sz3", name, shape, rel_eb).compression_ratio
    sz2 = point("sz2", name, shape, rel_eb).compression_ratio
    assert sz3 >= sz2, f"SZ3 {sz3:.1f} vs SZ2 {sz2:.1f}"


@pytest.mark.parametrize("rel_eb", [1e-3, 1e-4])
@pytest.mark.parametrize("name", ["cesm", "nyx"])
def test_fig07_qoz_errors_within_bound(name, rel_eb):
    pt = point("qoz cr", name, SHAPES[name], rel_eb)
    assert pt.max_error <= pt.abs_eb


ABLATION = ("sz3", "sz3+AP", "sz3+AP+S", "sz3+AP+S+LIS", "qoz psnr")


@pytest.mark.parametrize(
    "step",
    [pytest.param(1, marks=fails_today(
        "SZ3 + AP reads CR 33.86 vs SZ3's 33.99 on miranda 48x64x64 at "
        "rel 1e-3: the anchor grid costs more than it saves here")),
     2, 3, 4],
    ids=ABLATION[1:],
)
def test_fig12_ablation_step_keeps_cr(step):
    """Adding one ingredient does not lower miranda's CR (rel 1e-3)."""
    before, after = (
        point(ABLATION[i], "miranda", SHAPES["miranda"], 1e-3)
        .compression_ratio for i in (step - 1, step)
    )
    assert after >= before, f"{ABLATION[step]} {after:.2f} vs {before:.2f}"


OWN_METRIC = {
    "psnr": lambda pt: pt.psnr,
    "ssim": lambda pt: pt.ssim,
    "ac": lambda pt: -abs(pt.autocorr),  # whiter errors are better
}


@pytest.mark.parametrize("metric", list(OWN_METRIC))
@pytest.mark.parametrize("name", list(SHAPES))
def test_table1_mode_holds_its_own_metric(name, metric, request):
    """QoZ tuned for a metric is at least as good on it as QoZ(cr) at the
    same bound (rel 1e-3); where the tuner keeps cr's (alpha, beta) the
    two tie."""
    failing = {
        ("hurricane", "ac"): "lag-1 AC -0.0034 vs QoZ(cr)'s -0.0002",
        ("cesm", "ac"): "lag-1 AC 0.0066 vs QoZ(cr)'s 0.0009",
    }
    if (name, metric) in failing:
        request.applymarker(fails_today(
            failing[name, metric] + ": on near-white errors the sampled "
            "AC score does not carry to the field"))
    shape, ssim = SHAPES[name], metric == "ssim"
    mode = point(f"qoz {metric}", name, shape, 1e-3, ssim)
    base = point("qoz cr", name, shape, 1e-3, ssim)
    score = OWN_METRIC[metric]
    assert score(mode) >= score(base), f"{score(mode):.5g} vs {score(base):.5g}"


def _dominates(a, b):
    """``a`` is at least as good as ``b`` on (bit rate, PSNR), better on
    one."""
    return (a.bit_rate <= b.bit_rate and a.psnr >= b.psnr
            and (a.bit_rate < b.bit_rate or a.psnr > b.psnr))


@pytest.mark.parametrize("name", ["cesm", "nyx"])
def test_fig13_autotune_not_dominated(name):
    """No fixed (alpha, beta) point of the sweep beats auto-tuned
    QoZ(psnr) on both bit rate and PSNR."""
    shape, ebs = SHAPES[name], (1e-2, 1e-3, 1e-4)
    fixed = [(s, eb, point(s, name, shape, eb))
             for s in ("a=1,b=1", "a=1.5,b=3", "a=2,b=4") for eb in ebs]
    for eb in ebs:
        auto = point("qoz psnr", name, shape, eb)
        beaten_by = [(s, e) for s, e, pt in fixed if _dominates(pt, auto)]
        assert not beaten_by, f"autotune at {eb:g} dominated by {beaten_by}"


def test_fig14_parallel_io_is_asserted_in_test_parallel():
    """Fig. 14 (the highest-CR codec wins dump time once the file system
    saturates) is asserted by ``tests/parallel/test_parallel.py``; this
    row pins the link instead of copying the test."""
    source = pathlib.Path(__file__).parents[1] / "parallel" / "test_parallel.py"
    tests = {
        f"{cls.name}.{fn.name}"
        for cls in ast.parse(source.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    }
    assert "TestIOModel.test_high_cr_codec_wins_at_large_scale" in tests
