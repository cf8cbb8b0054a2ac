"""Chunked out-of-core compression with random-access decompression.

Tiles a 3-D turbulence field into 32^3 blocks, compresses each block
independently into a multi-chunk container on disk, then decodes a single
chunk and an arbitrary hyperslab — reading only the byte ranges of the
chunks touched, never the whole stream.

Run: python examples/chunked_random_access.py
"""

import numpy as np

import repro
from repro.datasets import get_dataset

PATH = "miranda_chunked.rpz"


def main() -> None:
    data = get_dataset("miranda", shape=(48, 64, 64), seed=0)
    print(f"input: {data.shape} {data.dtype}, {data.nbytes / 1e6:.1f} MB")

    # relative bound resolved against the FULL field's value range, then
    # applied to every chunk — same guarantee as the unchunked path
    eps = 1e-3
    info = repro.compress(
        data, file=PATH, codec="sz3", chunks=32, bound=f"rel:{eps}"
    )
    eb = info.header.error_bound
    print(f"container: {info.total_bytes} bytes "
          f"(CR = {data.nbytes / info.total_bytes:.1f}x), "
          f"grid {info.grid.grid_shape} of {info.grid.chunk_shape} chunks, "
          f"abs eb = {eb:.3g}")

    with repro.open(PATH) as f:
        # --- single-chunk random access -------------------------------
        i = f.n_chunks // 2
        entry = f.info.entries[i]
        chunk = f.chunk(i)  # one seek + one read of entry.nbytes
        err = np.abs(chunk.astype(np.float64)
                     - data[entry.slices].astype(np.float64)).max()
        assert err <= eb, "bound must hold on the chunk"
        print(f"chunk {i} at {entry.start}: decoded {entry.nbytes} of "
              f"{info.total_bytes} container bytes "
              f"({100 * entry.nbytes / info.total_bytes:.1f}%), "
              f"max |error| = {err:.3g}")

        # --- hyperslab extraction -------------------------------------
        slab = (slice(10, 40), slice(0, 30), slice(8, 24))
        touched = f.grid.chunks_for_slab(slab)
        sub = f.read(slab)
        slab_bytes = sum(f.info.entries[j].nbytes for j in touched)
        err = np.abs(sub.astype(np.float64)
                     - data[slab].astype(np.float64)).max()
        assert err <= eb, "bound must hold on the hyperslab"
        print(f"hyperslab {sub.shape}: decoded {len(touched)}/{f.n_chunks} "
              f"chunks ({100 * slab_bytes / info.total_bytes:.1f}% of the "
              f"container), max |error| = {err:.3g}")

        # --- full reconstruction matches the pieces -------------------
        full = f.to_array()
        np.testing.assert_array_equal(full[entry.slices], chunk)
        np.testing.assert_array_equal(full[slab], sub)
        print(f"full reconstruction: max |error| = "
              f"{np.abs(full.astype(np.float64) - data.astype(np.float64)).max():.3g} "
              f"<= eb = {eb:.3g}")


if __name__ == "__main__":
    main()
