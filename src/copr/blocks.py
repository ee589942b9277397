"""The even row split that copr's batched kernels run their rows in.

A kernel whose scratch arrays grow with its row count (MLP inference, the
batched plane fit, the k-NN distance blocks, the training-pair distances)
runs its rows in blocks from :func:`even_blocks`, each block writing into
one preallocated output, which its caller may pass in (:func:`output_block`).
Its working set then stays near cache size however large the map, and a
row's result does not depend on the block it falls in.

No block holds a single row unless there is only one: numpy sends a one-row
matrix product to gemv, whose sums can differ in the last bit from the gemm
that computes the same row inside a larger block.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch


def even_blocks(n: int, max_rows: int) -> list[slice]:
    """Slices splitting ``range(n)`` into the fewest blocks of at most
    ``max_rows`` rows, in order and with sizes that differ by at most one.

    Every block holds at least two rows unless n == 1, so a block may exceed
    ``max_rows`` when that is below 3. n == 0 gives no blocks.
    """
    count = max(min(-(-n // max(max_rows, 1)), n // 2), min(n, 1))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def output_block(out, n: int, width: int) -> np.ndarray:
    """``out`` when it is an (n, ``width``) float64 array for a kernel to
    write its rows into; a new such array when it is None.

    Raises:
        ShapeMismatch: for any other ``out``.
    """
    if out is None:
        return np.empty((n, width))
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != (n, width):
        raise ShapeMismatch(f"output block of shape {np.shape(out)} is not a float64 {(n, width)} array")
    return out
