"""Good/bad fixture pairs for the two rules, and the command line on a
seeded violation of each.

Every rule has *bad* fixtures proving it fires (the exact rule ID and
line number asserted) and *good* twins proving the sanctioned idiom
passes.  Line numbers are counted inside the dedented fixture strings —
the leading newline of each triple-quoted block makes the first code
line line 2.  (The fixtures of the eight retired rules went with their
pins: ``tests/parallel/rule_fixtures.py``.)
"""

import subprocess
import sys
import textwrap

import pytest

from repro.lint import RULES, lint_source


def run(rule_id, source, relpath="repro/encoding/mod.py"):
    rules = [rule for rule in RULES if rule.rule_id == rule_id]
    return lint_source(textwrap.dedent(source), relpath, rules)


def hits(findings):
    return [(f.rule, f.line) for f in findings]


# ------------------------------------------------------------------- RL001


def test_rl001_fires_on_header_sized_allocation():
    findings = run(
        "RL001",
        """
        import struct
        import numpy as np

        def decode_stream(blob):
            n = struct.unpack("<Q", blob[:8])[0]
            return np.empty(n, dtype="<f8")
        """,
    )
    assert hits(findings) == [("RL001", 7)]


def test_rl001_passes_with_max_size_guard():
    findings = run(
        "RL001",
        """
        import struct
        import numpy as np
        from repro.errors import DecompressionError

        def decode_stream(blob, max_size=None):
            n = struct.unpack("<Q", blob[:8])[0]
            if max_size is not None and n > max_size:
                raise DecompressionError("declared size exceeds cap")
            return np.empty(n, dtype="<f8")
        """,
    )
    assert findings == []


def test_rl001_fires_on_unvalidated_repeat_and_count():
    findings = run(
        "RL001",
        """
        import numpy as np

        def decode_runs(vals, lens, blob):
            out = np.repeat(vals, lens)
            raw = np.frombuffer(blob, dtype="<u4", count=lens[0])
            return out, raw
        """,
    )
    assert hits(findings) == [("RL001", 5), ("RL001", 6)]


def test_rl001_passes_validator_call_and_len():
    findings = run(
        "RL001",
        """
        import numpy as np

        def decode_runs(vals, lens, blob):
            validate_run_lengths(lens, vals)
            out = np.repeat(vals, lens)
            raw = np.frombuffer(blob, dtype="<u4", count=len(blob) // 4)
            return out, raw
        """,
    )
    assert findings == []


def test_rl001_ignores_non_decode_functions():
    findings = run(
        "RL001",
        """
        import numpy as np

        def build_table(n):
            return np.empty(n)
        """,
    )
    assert findings == []


# ------------------------------------------------------------------- RL003


def test_rl003_fires_on_unregistered_format():
    findings = run(
        "RL003",
        """
        import struct

        def read_count(prelude, ndim):
            return struct.unpack_from("<QQQ", prelude, 4 * ndim)

        def read_ok(prelude, ndim):
            return struct.unpack_from("<Q", prelude, 4 * ndim)
        """,
        relpath="repro/chunked/container.py",
    )
    assert hits(findings) == [("RL003", 5)]
    assert "wire_registry" in findings[0].message


def test_rl003_fires_on_registry_drift():
    # the registered "<Q" never appears -> the registry and the module
    # have drifted apart
    findings = run(
        "RL003",
        """
        import struct
        """,
        relpath="repro/chunked/container.py",
    )
    assert hits(findings) == [("RL003", 1)]
    assert "drifted" in findings[0].message


def test_rl003_fires_on_changed_constant_without_registry_bump():
    source = (
        "import struct\n"
        "PROTOCOL_VERSION = 3\n"
        "MAX_FRAME = 1 << 30\n"
        "OP_PING = 1\n"
        "OP_COMPRESS = 2\n"
        "OP_DECOMPRESS = 3\n"
        "OP_READ_SLAB = 4\n"
        "OP_STATS = 5\n"
        "ST_OK = 0\n"
        "ST_ERROR = 1\n"
        "ST_RETRY = 2\n"
        'FMTS = (struct.pack("<B", 0), struct.pack("<H", 0),\n'
        '        struct.pack("<I", 0), struct.pack("<Q", 0),\n'
        '        struct.pack("<q", 0), struct.pack("<d", 0.0))\n'
    )
    findings = run("RL003", source, relpath="repro/service/protocol.py")
    assert hits(findings) == [("RL003", 2)]
    assert "PROTOCOL_VERSION" in findings[0].message
    assert "bumping the revision" in findings[0].message


def test_rl003_passes_fstring_count_normalization():
    findings = run(
        "RL003",
        """
        import struct
        MAGIC = b"RPZ1"
        VERSION = 2
        VERSION_CHECKSUM = 3
        FLAG_CHUNKED = 0x01
        _PREFIX = struct.Struct("<4sB")
        _FIXED_V1 = struct.Struct("<4sBBBBd")
        _FIXED_V2 = struct.Struct("<4sBBBBBd")

        def pack_all(shape, ndim, e):
            a = struct.pack(f"<{len(shape)}Q", *shape)
            b = struct.pack(f"<{ndim}I", *shape)
            c = struct.pack("<I", 1) + struct.pack("<Q", 2)
            d = struct.pack("<QQ", e.offset, e.nbytes)
            return a + b + c + d
        """,
        relpath="repro/core/header.py",
    )
    assert findings == []


def test_rl003_fires_on_dynamic_format_string():
    findings = run(
        "RL003",
        """
        import struct

        def sneaky_pack(fmt):
            struct.unpack_from("<Q", b"", 0)
            return struct.pack(fmt, 1)
        """,
        relpath="repro/chunked/container.py",
    )
    assert hits(findings) == [("RL003", 6)]
    assert "statically auditable" in findings[0].message


def test_rl003_ignores_unregistered_modules():
    findings = run(
        "RL003",
        """
        import struct
        X = struct.pack("<QQQQQ", 1, 2, 3, 4, 5)
        """,
        relpath="repro/analysis/report.py",
    )
    assert findings == []


# ------------------------------------------------- python -m repro lint

SEEDED = {
    "RL001": ("repro/encoding/seeded.py", """
        import numpy as np

        def decode_stream(reader):
            return np.empty(reader.u64(), dtype="<f8")
        """),
    "RL003": ("repro/chunked/container.py", """
        import struct

        def read_count(prelude):
            return struct.unpack_from("<Q", prelude)[0]

        def read_flags(prelude):
            return struct.unpack_from("<H", prelude, 8)[0]
        """),
}


def repro_lint(path, env):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("rule_id", sorted(SEEDED))
def test_a_seeded_violation_fails_the_command_line(
    rule_id, tmp_path, subprocess_env
):
    relpath, source = SEEDED[rule_id]
    target = tmp_path / relpath
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(source))
    result = repro_lint(tmp_path, subprocess_env)
    assert result.returncode == 1, result.stdout + result.stderr
    assert f"{relpath}:" in result.stdout and f" {rule_id} " in result.stdout
    assert "1 finding(s)" in result.stdout


def test_every_rule_has_a_seeded_violation():
    assert sorted(SEEDED) == [rule.rule_id for rule in RULES]


def test_the_command_line_passes_a_clean_tree(tmp_path, subprocess_env):
    for relpath, source in SEEDED.values():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        fixed = textwrap.dedent(source).replace(
            "reader.u64()", "min(reader.u64(), MAX_VALUES)"
        ).replace('"<H", prelude, 8', '"<Q", prelude, 8')
        target.write_text(fixed)
    result = repro_lint(tmp_path, subprocess_env)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout
