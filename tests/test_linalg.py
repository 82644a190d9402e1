import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcoh.linalg import MatrixQ, quotient_basis, sparse_rank

_F0 = Fraction(0)
_F1 = Fraction(1)


def mat(rows):
    return MatrixQ.from_rows(rows)


# -- dense reference implementations ------------------------------------
#
# The dense Gaussian elimination loops that MatrixQ ran before all of its
# elimination went through the sparse step of causalcoh.linalg.  They are
# kept here as independent oracles: the differential tests below, the
# cohomology re-rank oracle and the Killing rank test compare against them.


def dense_rref(a: MatrixQ) -> tuple[MatrixQ, tuple[int, ...]]:
    """Reduced row echelon form and pivots by dense Gauss-Jordan elimination.

    Pivot choice is the first nonzero entry in column order.
    """
    m = [list(a.row(i)) for i in range(a.rows)]
    pivots = []
    r = 0
    for c in range(a.cols):
        pr = None
        for i in range(r, a.rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        if inv != 1:
            m[r] = [v / inv for v in m[r]]
        mr = m[r]
        for i in range(a.rows):
            if i != r and m[i][c]:
                f = m[i][c]
                mi = m[i]
                for j in range(c, a.cols):
                    if mr[j]:
                        mi[j] -= f * mr[j]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return MatrixQ(a.rows, a.cols, m), tuple(pivots)


def dense_rank(a: MatrixQ) -> int:
    """Rank over the rationals via dense forward Gaussian elimination."""
    m = [list(a.row(i)) for i in range(a.rows)]
    r = 0
    for c in range(a.cols):
        pr = None
        for i in range(r, a.rows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        mr = m[r]
        piv = mr[c]
        for i in range(r + 1, a.rows):
            f = m[i][c]
            if f:
                f = f / piv
                mi = m[i]
                for j in range(c, a.cols):
                    if mr[j]:
                        mi[j] -= f * mr[j]
        r += 1
        if r == a.rows:
            break
    return r


def dense_kernel_basis(a: MatrixQ) -> MatrixQ:
    """Canonical kernel basis read off :func:`dense_rref`: for each free
    column f, 1 at f and ``-R[i][f]`` at the i-th pivot column."""
    R, pivots = dense_rref(a)
    pivset = set(pivots)
    free = [c for c in range(a.cols) if c not in pivset]
    cols = []
    for f in free:
        v = [_F0] * a.cols
        v[f] = _F1
        for i, p in enumerate(pivots):
            v[p] = -R[i, f]
        cols.append(v)
    return MatrixQ.from_columns(cols, rows=a.cols)


def dense_solve(a: MatrixQ, rhs: MatrixQ) -> MatrixQ | None:
    """Particular solution (free variables 0) read off the dense rref of
    ``[a | rhs]``; None when the system is inconsistent."""
    R, pivots = dense_rref(a.hstack(rhs))
    if any(p >= a.cols for p in pivots):
        return None
    out = [[_F0] * rhs.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        for j in range(rhs.cols):
            out[p][j] = R[i, a.cols + j]
    return MatrixQ(a.cols, rhs.cols, out)


def test_rank_identity():
    assert MatrixQ.identity(2).rank() == 2


def test_rank_zero_matrix():
    assert MatrixQ.zeros(3, 5).rank() == 0


def test_zero_matrices_are_shared_per_shape():
    assert MatrixQ.zeros(2, 3) is MatrixQ.zeros(2, 3)
    assert MatrixQ.zeros(2, 3) == MatrixQ(2, 3) and MatrixQ.zeros(3, 2).shape() == (3, 2)
    with pytest.raises(ValueError):
        MatrixQ.zeros(-1, 2)


def test_identity_matrices_are_shared_per_size():
    assert MatrixQ.identity(3) is MatrixQ.identity(3)
    assert MatrixQ.identity(3) == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert MatrixQ.identity(0).shape() == (0, 0)
    with pytest.raises(ValueError):
        MatrixQ.identity(-1)


def test_products_with_a_zero_dimension_are_the_shared_zero_matrix():
    a, b = mat([[1, 2]]), MatrixQ.zeros(2, 0)
    assert a * b is MatrixQ.zeros(1, 0)
    assert MatrixQ.zeros(3, 0) * MatrixQ.zeros(0, 2) is MatrixQ.zeros(3, 2)
    assert MatrixQ.zeros(0, 1) * a is MatrixQ.zeros(0, 2)


def test_pivots_skip_rows():
    # hand elimination: rows 0 and 1 are dependent, row 2 leads at column 0
    m = mat([[0, 1, 1], [0, 2, 2], [1, 0, 0]])
    assert m.pivots() == {0, 1}
    assert m.pivots(skip={2}) == {1}
    assert m.pivots(skip={0}) == {0, 1}
    assert m.pivots(skip={0, 1, 2}) == frozenset()


def test_sparse_rank_copies_its_input():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {2: Fraction(1, 3)}]
    snapshot = [dict(r) for r in rows]
    assert sparse_rank(rows) == 2 and sparse_rank([]) == 0
    assert rows == snapshot


def test_rank_dependent_rows():
    # hand row reduction: second row is twice the first
    assert mat([[1, 2], [2, 4]]).rank() == 1


def test_kernel_of_identity_is_empty():
    k = MatrixQ.identity(3).kernel_basis()
    assert k.shape() == (3, 0)


def test_kernel_of_zero_matrix_is_everything():
    k = MatrixQ.zeros(2, 3).kernel_basis()
    assert k.shape() == (3, 3)
    assert k.rank() == 3


def test_kernel_single_row():
    # solve by hand: x + y = 0, z free -> span{(1,-1,0), (0,0,1)}
    m = mat([[1, 1, 0]])
    k = m.kernel_basis()
    assert k.shape() == (3, 2)
    assert (m * k).is_zero()
    for v in ([1, -1, 0], [0, 0, 1]):
        assert k.solve(MatrixQ.column_vector(v)) is not None


def test_solve_particular_and_inconsistent():
    m = mat([[1, 0], [0, 0]])
    sol = m.solve(MatrixQ.column_vector([5, 0]))
    assert sol is not None and sol[0, 0] == 5 and sol[1, 0] == 0
    assert m.solve(MatrixQ.column_vector([0, 1])) is None


def test_inverse_round_trip():
    m = mat([[2, 1], [1, 1]])
    inv = m.inverse()
    assert m * inv == MatrixQ.identity(2)
    assert inv * m == MatrixQ.identity(2)


def test_exact_fractions_survive():
    m = mat([[Fraction(1, 3), Fraction(1, 6)]])
    k = m.kernel_basis()
    assert (m * k).is_zero()
    assert k[0, 0] == Fraction(-1, 2)


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(MatrixQ.from_rows)))


@settings(max_examples=60, derandomize=True)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, derandomize=True)
@given(matrices())
def test_rank_nullity(m):
    k = m.kernel_basis()
    assert (m * k).is_zero()
    assert k.rank() == k.cols  # kernel basis columns are independent
    assert m.rank() + k.cols == m.cols


@settings(max_examples=40, derandomize=True)
@given(matrices())
def test_rref_is_idempotent(m):
    r1, piv1 = m.rref()
    r2, piv2 = r1.rref()
    assert r1 == r2 and piv1 == piv2


@settings(max_examples=40, derandomize=True)
@given(matrices(max_dim=4))
def test_solve_solves(m):
    # right-hand sides built from the matrix itself are always consistent
    rhs = m * MatrixQ.from_rows([[1] for _ in range(m.cols)])
    sol = m.solve(rhs)
    assert sol is not None
    assert m * sol == rhs


def test_determinism_bit_identical():
    m = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.rref() == m.rref()
    assert m.kernel_basis() == m.kernel_basis()


# -- sparse elimination against the dense oracles -----------------------

_ENTRIES = (0, 0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5))


def _random_matrix(rng: random.Random, rows: int, cols: int) -> MatrixQ:
    if rng.random() < 0.4 and rows and cols:
        # a product through a narrow middle: rank-deficient, with
        # non-unit and fractional pivots
        k = rng.randint(0, min(rows, cols))
        left = MatrixQ(rows, k, [[rng.choice(_ENTRIES) for _ in range(k)] for _ in range(rows)])
        right = MatrixQ(k, cols, [[rng.choice(_ENTRIES) for _ in range(cols)] for _ in range(k)])
        return left * right
    return MatrixQ(rows, cols, [[rng.choice(_ENTRIES) for _ in range(cols)] for _ in range(rows)])


def _differential_cases():
    rng = random.Random(20010)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 7), (7, 2), (5, 5), (3, 9), (9, 4)]
    for rows, cols in shapes:
        yield MatrixQ.zeros(rows, cols)
    for _ in range(400):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        if rng.random() < 0.3:
            rows, cols = rng.choice(shapes)
        yield _random_matrix(rng, rows, cols)
    yield mat([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 9), Fraction(1, 9)]])
    yield mat([[0, 2, 4], [0, 3, 6], [5, 0, 1]])


def _growth_cases():
    """Inputs whose pivots are not +-1 or whose entries grow under
    fraction-free elimination."""
    yield mat([[Fraction(1, i + j + 1) for j in range(7)] for i in range(7)])  # Hilbert
    yield mat([[x ** k for k in range(6)] for x in (2, 3, 5, 7, 11, 13)])  # Vandermonde
    rng = random.Random(1_000_000)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = [[rng.choice((0, rng.randint(-10 ** 6, 10 ** 6))) for _ in range(cols)]
                   for _ in range(rows)]
        if rng.random() < 0.5 and rows > 1:
            # a dependent row: a combination of two others with large weights
            a, b = rng.sample(range(rows), 2)
            u, v = rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)
            entries[rng.randrange(rows)] = [u * x + v * y for x, y in zip(entries[a], entries[b])]
        yield mat(entries)


def test_sparse_elimination_matches_dense_oracle():
    rng = random.Random(7)
    skip_rng = random.Random(13)
    for m in (*_differential_cases(), *_growth_cases()):
        assert m.rref() == dense_rref(m), m
        assert _stored_entries_are_normal(m.rref()[0]), m
        assert _stored_entries_are_normal(m.kernel_basis()), m
        assert m.rank() == dense_rank(m), m
        assert sparse_rank(m._r) == dense_rank(m), m
        assert m.pivots() == frozenset(dense_rref(m)[1]), m
        skip = {i for i in range(m.rows) if skip_rng.random() < 0.4}
        kept = m.take_rows(i for i in range(m.rows) if i not in skip)
        assert m.pivots(skip=skip) == frozenset(dense_rref(kept)[1]), (m, skip)
        assert m.kernel_basis() == dense_kernel_basis(m), m
        for rhs in (m * _random_matrix(rng, m.cols, 2),  # consistent
                    _random_matrix(rng, m.rows, rng.randint(0, 3))):
            sol = m.solve(rhs)
            assert sol == dense_solve(m, rhs), (m, rhs)
            assert sol is None or _stored_entries_are_normal(sol), (m, rhs)
        if m.rows == m.cols:
            want = dense_solve(m, MatrixQ.identity(m.rows))
            assert m.is_invertible() == (want is not None)
            if want is None:
                with pytest.raises(ValueError):
                    m.inverse()
            else:
                assert m.inverse() == want
                assert _stored_entries_are_normal(m.inverse()), m


def dense_quotient_basis(d: MatrixQ, image: MatrixQ) -> MatrixQ:
    """The canonical kernel columns of ``d`` kept by re-ranking: a column is
    kept when appending it to ``image`` and the columns kept so far raises
    the rank."""
    current, kept = image, []
    for col in dense_kernel_basis(d).columns():
        candidate = current.hstack(MatrixQ.column_vector(col))
        if dense_rank(candidate) > dense_rank(current):
            current = candidate
            kept.append(col)
    return MatrixQ.from_columns(kept, rows=d.cols)


def test_quotient_basis_matches_the_rerank_rule_and_gives_unique_coordinates():
    rng = random.Random(4411)
    for d in (*_differential_cases(), *_growth_cases()):
        kernel = dense_kernel_basis(d)
        image = kernel * _random_matrix(rng, kernel.cols, rng.randint(0, kernel.cols + 1))
        basis, coordinates = quotient_basis(d, image)
        assert basis == dense_quotient_basis(d, image), (d, image)
        assert _stored_entries_are_normal(basis) and _stored_entries_are_normal(coordinates)
        assert coordinates.shape() == (basis.cols, d.cols)
        assert coordinates * basis == MatrixQ.identity(basis.cols), (d, image)
        assert (coordinates * image).is_zero(), (d, image)
        # a kernel vector's coordinates do not depend on the image part added
        x = _random_matrix(rng, basis.cols, 2)
        y = _random_matrix(rng, image.cols, 2)
        assert coordinates * (basis * x + image * y) == x, (d, image)


def test_sparse_rank_of_tuple_keyed_integer_columns():
    # columns shaped like calabi.killing_system output: (component, Laurent
    # key) -> nonzero int, ranked without building a matrix
    rng = random.Random(596)
    for _ in range(60):
        keys = [(rng.randrange(16), (1 << 15) * rng.randint(1, 4) + rng.randrange(-3, 4))
                for _ in range(rng.randint(1, 12))]
        columns = []
        for _ in range(rng.randint(0, 9)):
            column = {}
            for key in rng.sample(keys, rng.randint(0, len(keys))):
                column[key] = rng.choice((1, -1, 2, -3, 6, 9, 45, -120, rng.randint(-10 ** 6, 10 ** 6)))
            columns.append({key: x for key, x in column.items() if x})
        if len(columns) > 2:
            # a dependent column: c0 * 7 - c1 * 3
            combo = {key: 7 * columns[0].get(key, 0) - 3 * columns[1].get(key, 0) for key in keys}
            columns.append({key: x for key, x in combo.items() if x})
        rows = sorted(set(keys))
        dense_columns = MatrixQ.from_rows([[col.get(key, 0) for col in columns] for key in rows]) \
            if columns else MatrixQ.zeros(len(rows), 0)
        assert sparse_rank(columns) == dense_rank(dense_columns), columns


# -- the sparse container against dense list-of-lists arithmetic ----------


def dense(m: MatrixQ) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def dense_product(a: MatrixQ, b: MatrixQ) -> list[list[Fraction]]:
    x, y = dense(a), dense(b)
    return [[sum((x[i][k] * y[k][j] for k in range(a.cols)), _F0) for j in range(b.cols)]
            for i in range(a.rows)]


def _stored_entries_are_normal(m: MatrixQ) -> bool:
    """No stored zero, no Fraction with denominator 1, no index outside."""
    return len(m._r) == m.rows and all(
        0 <= j < m.cols and x and (type(x) is int or
                                   (type(x) is Fraction and x.denominator > 1))
        for row in m._r for j, x in row.items())


def _operations(rng: random.Random, m: MatrixQ):
    """(name, operands, call) for every container operation on ``m``, and
    the dense result of each arithmetic one, by name."""
    same = _random_matrix(rng, m.rows, m.cols)
    right = _random_matrix(rng, m.cols, rng.randint(0, 4))
    wide = _random_matrix(rng, m.rows, rng.randint(0, 3))
    tall = _random_matrix(rng, rng.randint(0, 3), m.cols)
    c = rng.choice((0, 1, -1, 3, Fraction(-2, 3)))
    kernel = m.kernel_basis()
    image = kernel * _random_matrix(rng, kernel.cols, rng.randint(0, 3))
    ops = [("+", (m, same), lambda: m + same),
           ("-", (m, same), lambda: m - same),
           ("neg", (m,), lambda: -m),
           ("scale", (m,), lambda: m.scale(c)),
           ("*", (m, right), lambda: m * right),
           ("transpose", (m,), lambda: m.transpose()),
           ("hstack", (m, wide), lambda: m.hstack(wide)),
           ("vstack", (m, tall), lambda: m.vstack(tall)),
           ("rref", (m,), lambda: m.rref()[0]),
           ("kernel_basis", (m,), lambda: m.kernel_basis()),
           ("solve", (m, wide), lambda: m.solve(wide)),
           ("quotient_basis", (m, image), lambda: quotient_basis(m, image)),
           ("rank", (m,), lambda: m.rank()),
           ("pivots", (m,), lambda: m.pivots(skip={0})),
           ("sparse_rank", (m,), lambda: sparse_rank(m._r))]
    if m.is_invertible():
        ops.append(("inverse", (m,), lambda: m.inverse()))
    want = {"+": [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(dense(m), dense(same))],
            "-": [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(dense(m), dense(same))],
            "neg": [[-a for a in row] for row in dense(m)],
            "scale": [[c * a for a in row] for row in dense(m)],
            "*": dense_product(m, right),
            "transpose": [[dense(m)[i][j] for i in range(m.rows)] for j in range(m.cols)],
            "hstack": [ra + rb for ra, rb in zip(dense(m), dense(wide))],
            "vstack": dense(m) + dense(tall)}
    return ops, want


def test_container_operations_match_dense_arithmetic():
    rng = random.Random(2001)
    for m in _differential_cases():
        ops, want = _operations(rng, m)
        for name, operands, call in ops:
            before = [(x.shape(), dense(x)) for x in operands]
            first, second = call(), call()
            # (a) operands are never mutated, and results repeat exactly
            assert [(x.shape(), dense(x)) for x in operands] == before, (name, m)
            assert first == second, (name, m)
            if isinstance(first, MatrixQ):
                # (b) stored entries stay normalised
                assert _stored_entries_are_normal(first), (name, m)
            if name in want:
                rows = want[name]
                cols = len(rows[0]) if rows else first.cols
                assert dense(first) == rows, (name, m)
                assert first == MatrixQ(len(rows), cols, rows), (name, m)


def test_container_equality():
    rng = random.Random(5)
    for m in _differential_cases():
        copy = MatrixQ(m.rows, m.cols, dense(m))
        assert m == copy and not m != copy
        other = _random_matrix(rng, m.rows, m.cols)
        assert (m == other) == (dense(m) == dense(other))
    # equal (empty) contents, different shapes
    assert MatrixQ.zeros(0, 3) != MatrixQ.zeros(3, 0)
    assert MatrixQ.zeros(2, 3) != MatrixQ.zeros(3, 2)
    assert MatrixQ.zeros(2, 2) != MatrixQ.identity(2)


def test_int_and_fraction_entries_give_equal_matrices():
    # (c) the stored form does not depend on how an entry was written
    rng = random.Random(11)
    for _ in range(100):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        ints = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        fracs = [[Fraction(x) for x in row] for row in ints]
        a, b = MatrixQ(rows, cols, ints), MatrixQ(rows, cols, fracs)
        assert a == b
        assert _stored_entries_are_normal(a) and _stored_entries_are_normal(b)
        assert all(type(a[i, j]) is Fraction and a[i, j] == ints[i][j]
                   for i in range(rows) for j in range(cols))


def test_constructor_validates_entries():
    with pytest.raises(TypeError):
        MatrixQ(1, 2, [[1, 0.0]])
    with pytest.raises(ValueError):
        MatrixQ(2, 2, [[1, 0]])
    with pytest.raises(ValueError):
        MatrixQ(1, 2, [[1, 0, 0]])
