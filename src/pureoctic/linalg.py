"""Tiny exact linear algebra over Fraction: reduced row echelon form,
nullspaces, rank and span membership.  Matrices are lists of row tuples;
everything stays exact.  The tests use it as the dense reference for the
fixed fields that `splitting` reads off the monomial Galois action; no
subcommand runs it, and it stays in the package because `coldbench`
traces `rref`, `nullspace` and `in_span` by name."""

from fractions import Fraction


def rref(rows: list) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def nullspace(rows: list, ncols: int) -> list[tuple]:
    """Canonical basis of {x : A x = 0}, one vector per free column."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            vec[pcol] = -row[free]
        basis.append(tuple(vec))
    return basis


def rank(rows: list) -> int:
    return len(rref(rows)[0])


def in_span(vectors: list, v) -> bool:
    """Is v a linear combination of the given vectors?"""
    if not vectors:
        return all(x == 0 for x in v)
    return rank(list(vectors)) == rank(list(vectors) + [list(v)])

