"""The product form of a span that the doubling kernel linalg.span_blocks is
tested against: every combination evaluated on its own, as digit products;
and the byte budget at which the kernel yields blocks of a chosen size."""

import math

import numpy as np

from cdcodes.linalg import _digit_products, _span_bytes


def span_product(field, rows, idx) -> np.ndarray:
    """The combinations sum_i c_i row_i of rows (..., r, L) for each index in idx.

    c_i is base-q digit i of the index, c_0 least significant, and the
    result is an int64 array (..., len(idx), L) of element codes.  The sum
    is taken over the prime field: the m base-p digits of a code are its
    coordinates over GF(p), and multiplication by the code p^e is the
    m x m map over GF(p) whose row j holds the digits of p^e * p^j, so
    rows times digits is one integer matrix product mod p for any q.
    """
    p, m = field.p, field.m
    powers = p ** np.arange(m, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    *batch, r, width = rows.shape
    scaled = np.einsum("...rlj,ejk->...relk", rows[..., None] // powers % p,
                       _digit_products(field)) % p  # digits of p^e * row_r
    scaled = scaled.reshape(*batch, r * m, width * m)
    digits = np.asarray(idx, dtype=np.int64)[:, None] // p ** np.arange(r * m, dtype=np.int64)
    out = digits % p @ scaled % p
    return out.reshape(*out.shape[:-1], width, m) @ powers


def span_budget(field, shape, block, width, dtype, new) -> tuple[int, int]:
    """(budget, n): at linalg._CHUNK_BYTES = budget, span_blocks over rows of shape
    (..., r, L) into width codes of dtype (new: without out) yields blocks of n
    combinations, n the largest power of p within block and q^r, or 1."""
    *batch, r, length = shape
    held, per_combination = _span_bytes(field, math.prod(batch), r, length, width, dtype, new)
    n = 1
    while n * field.p <= min(block, field.order ** r):
        n *= field.p
    return held + block * max(1, per_combination), n
