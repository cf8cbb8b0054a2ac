"""Tests for the ``python -m repro`` CLI (in-process + one real subprocess)."""

import subprocess
import sys

import numpy as np
import pytest

from repro.__main__ import main, _parse_chunks, _parse_slab


@pytest.fixture()
def npy_field(tmp_path):
    from repro.datasets import get_dataset

    data = get_dataset("cesm", shape=(64, 80), seed=0)
    path = tmp_path / "field.npy"
    np.save(path, data)
    return path, data


class TestParsers:
    def test_chunks_single_broadcasts(self):
        assert _parse_chunks("64") == 64

    def test_chunks_tuple(self):
        assert _parse_chunks("64,32") == (64, 32)

    def test_slab(self):
        assert _parse_slab("0:16,:,8:24") == (
            slice(0, 16), slice(None, None), slice(8, 24),
        )

    def test_slab_single_index(self):
        assert _parse_slab("3,0:4") == (slice(3, 4), slice(0, 4))

    def test_slab_negative_single_index(self):
        """-1 must select the last element, not an empty slice(-1, 0)."""
        assert _parse_slab("-1,0:4") == (slice(-1, None), slice(0, 4))
        assert _parse_slab("-3") == (slice(-3, -2),)


class TestSurface:
    """The subcommand set is part of the surface: one appearing or
    vanishing must be a reviewed diff of this list."""

    COMMANDS = "compress, decompress, info, verify, serve, serve-stats"

    def test_help_lists_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        choices = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert choices.split(",") == self.COMMANDS.split(", ")

    def test_lint_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "src"])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestEndToEnd:
    def test_compress_info_decompress(self, npy_field, tmp_path, capsys):
        path, data = npy_field
        rpz = tmp_path / "field.rpz"
        out = tmp_path / "recon.npy"

        assert main(["compress", str(path), str(rpz),
                     "--codec", "sz3", "--chunks", "32",
                     "--eb", "rel:1e-3"]) == 0
        assert "wrote" in capsys.readouterr().out

        assert main(["info", str(rpz), "--list-chunks"]) == 0
        text = capsys.readouterr().out
        assert "chunked container" in text and "sz3" in text

        assert main(["decompress", str(rpz), str(out)]) == 0
        recon = np.load(out)
        eb = 1e-3 * (data.max() - data.min())
        assert recon.shape == data.shape
        assert np.abs(
            recon.astype(np.float64) - data.astype(np.float64)
        ).max() <= eb

    def test_slab_decompress(self, npy_field, tmp_path, capsys):
        path, data = npy_field
        rpz = tmp_path / "field.rpz"
        full = tmp_path / "full.npy"
        slab = tmp_path / "slab.npy"
        main(["compress", str(path), str(rpz), "--codec", "sz3",
              "--chunks", "32", "--eb", "rel:1e-3"])
        main(["decompress", str(rpz), str(full)])
        main(["decompress", str(rpz), str(slab), "--slab", "10:50,60:80"])
        np.testing.assert_array_equal(
            np.load(slab), np.load(full)[10:50, 60:80]
        )

    def test_dataset_input_and_parallel(self, tmp_path, capsys):
        rpz = tmp_path / "nyx.rpz"
        assert main(["compress", "dataset:nyx:24x24x24", str(rpz),
                     "--codec", "sz3", "--chunks", "16",
                     "--eb", "rel:1e-3", "--processes", "2"]) == 0
        assert main(["info", str(rpz)]) == 0
        assert "(24, 24, 24)" in capsys.readouterr().out

    def test_plain_stream_decompress_and_info(self, npy_field, tmp_path, capsys):
        """decompress/info also handle unchunked streams."""
        from repro.compressors.base import get_compressor

        path, data = npy_field
        plain = tmp_path / "plain.rpz"
        out = tmp_path / "out.npy"
        plain.write_bytes(
            get_compressor("sz3").compress(data, rel_error_bound=1e-3)
        )
        assert main(["info", str(plain)]) == 0
        assert "plain stream" in capsys.readouterr().out
        assert main(["decompress", str(plain), str(out)]) == 0
        assert np.load(out).shape == data.shape
        slab = tmp_path / "slab.npy"
        assert main(["decompress", str(plain), str(slab), "--slab=-1,2:9"]) == 0
        np.testing.assert_array_equal(np.load(slab), np.load(out)[-1:, 2:9])

    def test_eb_required(self, npy_field, tmp_path, capsys):
        """``--eb`` is the one bound flag and argparse enforces it: a
        missing one is a usage error (status 2) naming the flag."""
        path, _ = npy_field
        with pytest.raises(SystemExit) as exc:
            main(["compress", str(path), str(tmp_path / "x.rpz")])
        assert exc.value.code == 2
        assert "required: --eb" in capsys.readouterr().err

    def test_malformed_eb_is_one_error_line(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        assert main(["compress", str(path), str(tmp_path / "x.rpz"),
                     "--eb", "tight"]) == 1
        assert capsys.readouterr().err.startswith("error: error-bound spec")

    def test_eb_spec_reaches_the_container(self, npy_field, tmp_path):
        path, data = npy_field
        rpz = tmp_path / "x.rpz"
        assert main(["compress", str(path), str(rpz), "--codec", "sz3",
                     "--eb", "rel:1e-3"]) == 0
        from repro.chunked import ChunkedFile

        with ChunkedFile(str(rpz)) as f:
            assert f.error_bound == pytest.approx(
                1e-3 * float(data.max() - data.min()), rel=1e-6
            )


def test_python_dash_m_entrypoint(npy_field, tmp_path, subprocess_env):
    """The real ``python -m repro`` module entry point works."""
    path, _ = npy_field
    rpz = tmp_path / "field.rpz"
    result = subprocess.run(
        [sys.executable, "-m", "repro", "compress", str(path), str(rpz),
         "--codec", "sz3", "--chunks", "32", "--eb", "rel:1e-3"],
        env=subprocess_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert rpz.exists()
    result = subprocess.run(
        [sys.executable, "-m", "repro", "info", str(rpz)],
        env=subprocess_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "chunked container" in result.stdout
