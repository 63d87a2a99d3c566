"""Reference bodies for the linear algebra of the Lie layer.

These are the bodies that ``linalg.mat_mul``, ``lie.ad_operator``,
``lie.cocycle_space_dims``, ``lie.basis_coords`` and ``lie.torus_matrix``
replaced: every entry of every product is formed, A X A^{-1} is two full
matrix products per basis element, coordinates are read off by a closed
form per family, and torus matrices are built without checks.  They stay
here as the oracle for ``tests/test_linalg_reference.py`` and
``tests/test_lie.py``.  ``to_numpy`` gives the tests a float copy of an
exact matrix, for cross-checks by numpy's eigenvalues and determinants.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from toruschar import sparse
from toruschar.lie import lie_basis
from toruschar.linalg import exact_rank, identity, mat_inv, mat_sub
from toruschar.scalars import GaussRat, ONE, ZERO


def closed_form_basis_coords(group, entry):
    """Coordinates of a Lie-algebra element in lie_basis order, read off
    entrywise by a closed form per family."""
    n = group.rank
    coords = []
    if group.family == "GL":
        for i in range(n):
            for j in range(n):
                coords.append(entry(i, j))
    elif group.family == "SL":
        for i in range(n):
            for j in range(n):
                if i != j:
                    coords.append(entry(i, j))
        acc = 0
        for i in range(n - 1):
            acc = acc + entry(i, i)
            coords.append(acc)
    elif group.family == "Sp":
        for i in range(n):
            for j in range(n):
                coords.append(entry(i, j))
        for i in range(n):
            for j in range(i, n):
                coords.append(entry(i, n + j))
        for i in range(n):
            for j in range(i, n):
                coords.append(entry(n + i, j))
    else:
        m = group.matrix_size
        for a in range(m):
            for b in range(a + 1, m):
                coords.append(entry(a, b))
    return coords


def exact_torus_matrix(group, vals):
    """Torus matrix of nonzero GaussRat parameters (checks left out)."""
    half, half_i = GaussRat(Fraction(1, 2)), GaussRat(0, Fraction(1, 2))
    n = group.rank
    m = group.matrix_size
    rows = [[ZERO] * m for _ in range(m)]
    if group.family in ("GL", "SL"):
        for i, v in enumerate(vals):
            rows[i][i] = v
    elif group.family == "Sp":
        for i, v in enumerate(vals):
            rows[i][i] = v
            rows[n + i][n + i] = ONE / v
    else:
        for j, v in enumerate(vals):
            w = ONE / v
            c = (v + w) * half
            s = (v - w) * half_i
            rows[2 * j][2 * j] = c
            rows[2 * j][2 * j + 1] = s
            rows[2 * j + 1][2 * j] = -s
            rows[2 * j + 1][2 * j + 1] = c
        if group.family == "SOodd":
            rows[m - 1][m - 1] = ONE
    return tuple(map(tuple, rows))


def to_numpy(a):
    """The complex numpy array of an exact matrix."""
    return np.array([[complex(v) for v in row] for row in a], dtype=complex)


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
        cols.append(closed_form_basis_coords(group, lambda r, c: y[r][c]))
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
