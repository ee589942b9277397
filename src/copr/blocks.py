"""The even row split that copr's batched kernels run their rows in.

A kernel whose scratch arrays grow with its row count (MLP inference, the
batched plane fit, the k-NN distance blocks, the training-pair distances)
runs its rows in blocks from :func:`even_blocks`, each block writing into
one preallocated output. Its working set then stays near cache size however
large the map, and a row's result does not depend on the block it falls in.

No block holds a single row unless there is only one: numpy sends a one-row
matrix product to gemv, whose sums can differ in the last bit from the gemm
that computes the same row inside a larger block.
"""

from __future__ import annotations


def even_blocks(n: int, max_rows: int) -> list[slice]:
    """Slices splitting ``range(n)`` into the fewest blocks of at most
    ``max_rows`` rows, in order and with sizes that differ by at most one.

    Every block holds at least two rows unless n == 1, so a block may exceed
    ``max_rows`` when that is below 3. n == 0 gives no blocks.
    """
    count = max(min(-(-n // max(max_rows, 1)), n // 2), min(n, 1))
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]
