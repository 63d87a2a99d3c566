"""Dense exact reference for the sparse linear algebra of the Lie layer.

These are the dense bodies that ``linalg.mat_mul`` and the exact branches
of ``lie.ad_operator`` and ``lie.cocycle_space_dims`` replaced: every entry
of every product is formed, and A X A^{-1} is two full matrix products per
basis element.  They stay here as the oracle for
``tests/test_linalg_reference.py``.
"""

from __future__ import annotations

import itertools

from toruschar import sparse
from toruschar.lie import basis_coords, lie_basis
from toruschar.linalg import exact_rank, identity, mat_inv, mat_sub
from toruschar.scalars import ZERO


def dense_mat_mul(a, b):
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def dense_ad_operator(group, a):
    """Matrix of X -> A X A^{-1} in lie_basis coordinates (exact A)."""
    basis = lie_basis(group)
    d = len(basis)
    ainv = mat_inv(a)
    cols = []
    for x in basis:
        y = dense_mat_mul(a, dense_mat_mul(x, ainv))
        cols.append(basis_coords(group, lambda r, c: y[r][c]))
    return tuple(tuple(cols[b][r] for b in range(d)) for r in range(d))


def dense_cocycle_space_dims(action_mats):
    """(dim Z^1, dim B^1, dim H^1) for commuting exact operators."""
    mats = list(action_mats)
    n_gen = len(mats)
    d = len(mats[0])
    diffs = [mat_sub(m, identity(d)) for m in mats]
    brows = []
    for dm in diffs:
        for r in range(d):
            brows.append({c: dm[r][c] for c in range(d) if dm[r][c]})
    b_rank = exact_rank(brows)
    zrows = []
    for i, j in itertools.combinations(range(n_gen), 2):
        for r in range(d):
            row = {}
            for c in range(d):
                v = diffs[j][r][c]
                if v:
                    row[i * d + c] = v
                w = diffs[i][r][c]
                if w:
                    sparse.add_term(row, j * d + c, -w)
            if row:
                zrows.append(row)
    z_rank = exact_rank(zrows)
    dim_z1 = n_gen * d - z_rank
    return dim_z1, b_rank, dim_z1 - b_rank
