"""Dense exact matrices of ``Scalar`` for the tests.

The package itself only needs the diagonal of one congruence
diagonalization (``a1deg.gw.diagonalize``); these helpers build witnesses
and oracles around it.
"""

from a1deg.errors import DegenerateFormError


def identity_matrix(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def scalar_det(a, field):
    n = len(a)
    work = [list(row) for row in a]
    det = field.one
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            return field.zero
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        det = det * work[k][k]
        inv = work[k][k].inverse()
        for i in range(k + 1, n):
            if work[i][k]:
                c = work[i][k] * inv
                work[i] = [x - c * y for x, y in zip(work[i], work[k])]
    return det


def mat_inverse(a, field):
    n = len(a)
    work = [list(row) + irow for row, irow in zip(a, identity_matrix(field, n))]
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            raise DegenerateFormError("matrix is singular")
        work[k], work[pivot] = work[pivot], work[k]
        inv = work[k][k].inverse()
        work[k] = [x * inv for x in work[k]]
        for i in range(n):
            if i != k and work[i][k]:
                c = work[i][k]
                work[i] = [x - c * y for x, y in zip(work[i], work[k])]
    return [row[n:] for row in work]


def diagonalize_with_witness(gram, field):
    """Reference congruence diagonalization with its base change.

    Returns (diagonal entries, S) with S^T * gram * S diagonal, by symmetric
    row and column operations on the whole matrix, with the pivot rules of
    ``a1deg.gw.diagonalize``: a zero pivot swaps in the first later nonzero
    diagonal entry, or else adds the first row and column l with
    m[k][l] != 0.  A zero row leaves a zero diagonal entry.
    """
    n = len(gram)
    m = [list(row) for row in gram]
    s = identity_matrix(field, n)

    def add_col(dst, src, c):
        # column op on m and s, plus the mirrored row op on m
        for i in range(n):
            m[i][dst] = m[i][dst] + c * m[i][src]
        for j in range(n):
            m[dst][j] = m[dst][j] + c * m[src][j]
        for i in range(n):
            s[i][dst] = s[i][dst] + c * s[i][src]

    def swap(a, b):
        for i in range(n):
            m[i][a], m[i][b] = m[i][b], m[i][a]
        m[a], m[b] = m[b], m[a]
        for i in range(n):
            s[i][a], s[i][b] = s[i][b], s[i][a]

    for k in range(n):
        if not m[k][k]:
            l = next((l for l in range(k + 1, n) if m[l][l]), None)
            if l is not None:
                swap(k, l)
            else:
                l = next((l for l in range(k + 1, n) if m[k][l]), None)
                if l is None:
                    continue
                add_col(k, l, field.one)
        inv = m[k][k].inverse()
        for i in range(k + 1, n):
            if m[k][i]:
                add_col(i, k, -(m[k][i] * inv))
    return [m[i][i] for i in range(n)], s
