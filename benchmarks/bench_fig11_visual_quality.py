"""Fig. 11: reconstruction quality at the same compression ratio (CR=65).

Paper: on SCALE-LETKF, at CR 65, QoZ's reconstruction has the highest
PSNR (45.4) vs SZ3 43.21, MGARD+ 35.6, SZ2 33.6, ZFP 27.1.  We bisect
each codec's error bound to the target CR and compare PSNR; mid-depth
slices are also written as PGM images for visual inspection.  A codec
that cannot reach the target CR within the search's bound interval (ZFP
here) is reported as unreachable with the CR range it did reach, not as
a row at the wrong CR.
"""

from conftest import RESULTS_DIR, bench_dataset, record
from repro import MGARDPlus, QoZ, SZ2, SZ3, ZFP
from repro.analysis import (
    CRNotReachedError,
    find_error_bound_for_cr,
    format_table,
    write_pgm,
)
from repro.metrics import psnr, ssim

TARGET_CR = 65.0


def _run():
    data = bench_dataset("scale")
    rows = []
    RESULTS_DIR.mkdir(exist_ok=True)
    write_pgm(data[data.shape[0] // 2], str(RESULTS_DIR / "fig11_original.pgm"))
    for cname, codec in [
        ("sz2", SZ2()),
        ("sz3", SZ3()),
        ("zfp", ZFP()),
        ("mgard", MGARDPlus()),
        ("qoz", QoZ(metric="psnr")),
    ]:
        try:
            rel_eb, cr, blob = find_error_bound_for_cr(codec, data, TARGET_CR)
        except CRNotReachedError as e:
            low, high = e.reached
            rows.append(
                [cname, f"unreachable ({low:.1f}-{high:.1f})", "-",
                 float("nan"), float("nan")]
            )
            continue
        recon = codec.decompress(blob)
        rows.append(
            [cname, round(cr, 1), f"{rel_eb:.3g}",
             round(psnr(data, recon), 2), round(ssim(data, recon), 4)]
        )
        write_pgm(
            recon[recon.shape[0] // 2],
            str(RESULTS_DIR / f"fig11_{cname}.pgm"),
        )
    return rows


def test_fig11_visual_quality_at_same_cr(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["codec", "achieved_cr", "rel_eb", "psnr", "ssim"],
        rows,
        title=f"Fig. 11 — quality at CR~{TARGET_CR} on SCALE-LETKF "
        "(paper PSNR: QoZ 45.4 > SZ3 43.2 > MGARD+ 35.6 > SZ2 33.6 > "
        "ZFP 27.1); PGM slices in benchmarks/results/",
    )
    record("fig11_visual_quality", table)
