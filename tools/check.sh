#!/usr/bin/env sh
# One-command pre-push gate: the same checks CI's `lint` and `tests`
# jobs run, in fast-feedback order.
#
#   tools/check.sh          invariant tests + tier-1 suite + leak gate
#   tools/check.sh --fast   wire golden, structure pins, the three
#                           contract properties (error bound, route
#                           matrix, forged sizes), pooled-derive identity,
#                           generator digests, entropy coder (run tokens,
#                           estimator, decoder), SSIM's box mean against
#                           SciPy, the memory of one call and of the
#                           entropy codec (seconds)
#
# mypy runs only when it is installed — the check environment is not
# required to have it (CI's lint job always does).
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== wire golden + structure pins + error bound + route identity + forged sizes + digests + entropy coder + box mean + call memory =="
python -m pytest tests/wire tests/parallel/test_structure.py \
    tests/properties/test_error_bound.py tests/api/test_route_matrix.py \
    tests/properties/test_forged_sizes.py \
    tests/parallel/test_pooled_derive.py \
    tests/datasets/test_generator_digests.py \
    tests/encoding/test_golden_streams.py \
    tests/encoding/test_decode_vectorized.py \
    tests/encoding/test_huffman.py \
    tests/encoding/test_rle.py tests/encoding/test_codec.py \
    tests/metrics/test_box_mean.py \
    tests/api/test_call_memory.py tests/encoding/test_decode_memory.py -q

if python -c "import mypy" 2>/dev/null; then
    echo "== mypy =="
    python -m mypy src/repro
else
    echo "== mypy == (not installed; skipped — CI runs it)"
fi

if [ "${1:-}" = "--fast" ]; then
    echo "check.sh: fast checks passed"
    exit 0
fi

echo "== tier-1 suite =="
python -m pytest -x -q -m "not soak and not chaos"

# the leak gate: the suite itself fails if its process ends with a live
# child (tests/conftest.py); a slab may also be left by a process a test
# started, and that only shows from outside
echo "== leak gate =="
if ls /dev/shm/repro-slab-* >/dev/null 2>&1; then
    echo "check.sh: shared-memory slabs left behind:" >&2
    ls /dev/shm/repro-slab-* >&2
    exit 1
fi

echo "check.sh: all checks passed"
