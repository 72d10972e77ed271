"""The batched elimination that the swap-free kernel linalg.rref_batch is tested
against: every entry held as m int64 base-p digits, rows swapped into place, the
active matrices copied out and back on each column."""

import math

import numpy as np

from cdcodes.linalg import _digit_mul, _digit_products


def rref_reference(field, mats) -> tuple[np.ndarray, np.ndarray]:
    """(rref, rank) of every matrix of a (..., r, c) array of element codes.

    Elimination runs column by column on all matrices at once, pivoting on
    the first nonzero entry at or below each matrix's current rank and
    swapping it up.  A product is one contraction with the (m, m, m) table
    _digit_products and an inverse is x^(q-2) by square-and-multiply.
    Digits are int64, or Python ints when a product of two (p^2 >= 2^63)
    would overflow int64.
    """
    p, m, q = field.p, field.m, field.order
    table = _digit_products(field) if m > 1 else None
    dtype = object if p * p >= 1 << 63 else np.int64
    powers = p ** np.arange(m, dtype=dtype)
    mats = np.asarray(mats, dtype=dtype)
    *batch, r, c = mats.shape
    a = mats.reshape(math.prod(batch), r, c)[..., None] // powers % p
    rank = np.zeros(len(a), dtype=np.int64)
    for col in range(c):
        free = (a[:, :, col] != 0).any(-1) & (np.arange(r) >= rank[:, None])
        b = np.flatnonzero(free.any(1))
        if not len(b):
            continue
        sub, top, at = a[b], rank[b], np.arange(len(b))
        piv = free[b].argmax(1)
        row = sub[at, piv]
        sub[at, piv] = sub[at, top]
        inv, x, e = np.zeros_like(row[:, col]), row[:, col], q - 2
        inv[:, 0] = 1
        while e:
            if e & 1:
                inv = _digit_mul(inv, x, table, p)
            x, e = _digit_mul(x, x, table, p), e >> 1
        row = _digit_mul(inv[:, None], row, table, p)
        sub = (sub - _digit_mul(sub[:, :, col, None], row[:, None], table, p)) % p
        sub[at, top] = row
        a[b] = sub
        rank[b] += 1
    return (a @ powers).reshape(*batch, r, c), rank.reshape(batch)
