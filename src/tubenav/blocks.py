"""Row blocks for the dense array passes: the grid and KDE kernel sums, the
boundary search's box pass and the regularity check's section pairs.

A pass over (n, k) arrays runs a block of whole rows at a time, so that
the arrays of one block stay in a core's L2 cache through the passes over
them instead of streaming multi-megabyte temporaries through memory.
In the boundary search and the regularity check every element goes
through the same operations whatever the block size, so results do not
depend on it.  The error grid sums a whole record a block, over every
robot; a record larger than a block is summed a block of its columns at a
time, dropping the robots beyond R h = sqrt(106 ln 2) h of the block's
cells (see density.section_estimates), which moves a cell by less than
2^-53 / (2 pi h^2).

The kernel sums are matrix products with inner dimension four: a grid
column's factor exponents, then their (B, N) @ (N, A) sums, and the KDE's
exponent, then its row sums with a (N, 3) operand (see density).  Their
roundings differ from the broadcast forms', and a row's sums depend on
the shape of its block (a one-row block takes BLAS's matrix-vector path),
within the bounds that the two functions state.  With ``out=``
BLAS overwrites the output (beta = 0).  While one row fits a block, every
such product stays at or under OpenBLAS's single-thread size, m n k <=
2^18: the KDE sizes its blocks for four elements per robot and query
row, one per inner dimension of its exponent product, though it keeps one.
"""

# Float64 elements that the live arrays of one block hold together: 1 MiB,
# half of a 2 MiB L2.  Chosen by a block-size sweep (see CHANGES.md).
BLOCK_ELEMENTS = 1 << 17


def row_blocks(n, row_elements):
    """Rows per block, and the slices that cover range(n) in order with
    blocks of as many rows of ``row_elements`` live elements as fit in
    BLOCK_ELEMENTS, and at least one.  There is always a block: with n = 0
    it is empty, so a pass over no rows still returns empty results."""
    size = max(min(BLOCK_ELEMENTS // row_elements, n), 1)
    return size, [slice(a, min(a + size, n)) for a in range(0, max(n, 1), size)]
