import tracemalloc

import numpy as np
import pytest

from cqmlab import numerics as nm

from conftest import power_iteration_opnorm


def test_op_norm_trivial():
    assert nm.op_norm(np.eye(2, dtype=complex)) == pytest.approx(1.0)
    assert nm.op_norm(np.diag([2.0, -3.0]).astype(complex)) == pytest.approx(3.0)


def test_op_norm_power_iteration_oracle(rng):
    a = nm.random_hermitian(rng, 5)
    assert nm.op_norm(a) == pytest.approx(power_iteration_opnorm(a), abs=1e-8)


def test_op_norm_axioms(rng):
    for _ in range(50):
        a = nm.random_hermitian(rng, 4)
        b = nm.random_hermitian(rng, 4)
        lam = float(rng.normal())
        assert nm.op_norm(a + b) <= nm.op_norm(a) + nm.op_norm(b) + 1e-10
        assert nm.op_norm(lam * a) == pytest.approx(abs(lam) * nm.op_norm(a), rel=1e-10)


def test_quotient_norm_identity_multiples():
    for d in (1, 2, 5):
        assert nm.quotient_norm(3.7 * np.eye(d, dtype=complex)) == pytest.approx(0.0, abs=1e-12)


def test_quotient_norm_grid_oracle():
    a = np.diag([1.0, 0.0]).astype(complex)
    grid = np.linspace(-2, 3, 2001)
    oracle = min(nm.op_norm(a - lam * np.eye(2)) for lam in grid)
    assert nm.quotient_norm(a) == pytest.approx(0.5, abs=1e-12)
    assert nm.quotient_norm(a) == pytest.approx(oracle, abs=1e-5)


def test_quotient_norm_translation_invariance(rng):
    a = nm.random_hermitian(rng, 4)
    assert nm.quotient_norm(a + 7.0 * np.eye(4)) == pytest.approx(nm.quotient_norm(a))
    assert nm.quotient_norm(a) <= nm.op_norm(a) + 1e-12


def test_batched_norms(rng):
    stack = np.array([nm.random_hermitian(rng, 3) for _ in range(7)])
    batch = nm.op_norms(stack)
    single = [nm.op_norm(m) for m in stack]
    assert np.allclose(batch, single)
    # a diagonal stack is read off its diagonal; one non-diagonal matrix
    # sends the whole stack back to the eigensolver
    diag = np.array([np.diag(rng.standard_normal(3)).astype(complex) for _ in range(5)])
    assert nm.is_diagonal(diag) and not nm.is_diagonal(stack)
    assert np.array_equal(nm.op_norms(diag), np.max(np.abs(np.diagonal(diag, 0, 1, 2)), axis=1))
    mixed = np.concatenate([diag, stack[:1]])
    assert not nm.is_diagonal(mixed)
    assert nm.op_norms(diag).tobytes() == np.array([nm.op_norm(m) for m in diag]).tobytes()
    assert np.allclose(nm.op_norms(mixed), [nm.op_norm(m) for m in mixed])
    grid = np.stack([diag, diag])                       # (2, 5, 3, 3)
    assert nm.op_norms(grid).shape == (2, 5)
    # the full table and nearest's minima against a double loop of op_norm:
    # dense, diagonal and mixed stacks, shapes spanning several row blocks
    # (d = 3) and several column blocks (d = 16), and an empty side
    many_diag = np.array([np.diag(rng.standard_normal(3)).astype(complex) for _ in range(60)])
    many = np.concatenate([many_diag, [nm.random_hermitian(rng, 3) for _ in range(60)]])
    wide = np.array([nm.random_hermitian(rng, 16) for _ in range(300)])
    assert len(many) * len(many) * 9 > nm.DIST_BLOCK and len(wide) * 256 > nm.DIST_BLOCK
    for p, q in ((stack, stack[:4]), (diag, diag[::-1]), (mixed, stack), (diag, mixed),
                 (many, many), (wide[:3], wide)):
        loop = np.array([[nm.op_norm(a - b) for b in q] for a in p])
        assert np.allclose(_table(p, q), loop, rtol=1e-13, atol=1e-14)
        row_min, row_arg, col_min, col_arg = nm.nearest(p, q)
        assert np.allclose(row_min, loop.min(axis=1), rtol=1e-13, atol=1e-14)
        assert np.allclose(col_min, loop.min(axis=0), rtol=1e-13, atol=1e-14)
        assert np.allclose(loop[np.arange(len(p)), row_arg], row_min, rtol=1e-13, atol=1e-14)
        assert np.allclose(loop[col_arg, np.arange(len(q))], col_min, rtol=1e-13, atol=1e-14)
    assert _table(stack[:0], stack).shape == (0, 7)
    assert _table(stack, stack[:0]).shape == (7, 0)


def _table(p, q):
    """The full distance table |p_i - q_k|, from the stack of every
    difference."""
    return nm.op_norms(p[:, None] - q[None, :])


def _minima(t):
    """The min and the first argmin along each axis of a table: inf and -1
    along an empty axis."""
    n, m = t.shape
    if n == 0 or m == 0:
        return np.full(n, np.inf), np.full(n, -1), np.full(m, np.inf), np.full(m, -1)
    return t.min(axis=1), t.argmin(axis=1), t.min(axis=0), t.argmin(axis=0)


def _diagonal_stack(rng, n, d):
    """n diagonal d x d matrices with complex diagonals: their imaginary
    parts are what the eigensolver does not read, so every distance below
    must ignore them."""
    diag = rng.standard_normal((n, d)) + 1e-3j * rng.standard_normal((n, d))
    return diag[:, :, None] * np.eye(d)


def _linf_loop(p, q):
    """The diagonal distance table spelled out pair by pair, max_j |Re p_jj
    - Re q_jj|: the real parts of the diagonals, all that ``eigvalsh``
    reads of a diagonal matrix."""
    pd, qd = [np.diagonal(a).real for a in p], [np.diagonal(b).real for b in q]
    return np.array([[max(np.abs(x - y)) for y in qd] for x in pd]).reshape(len(p), len(q))


def test_nearest_diagonal_formula(rng):
    # nearest's four arrays bit for bit those of the pair loop's table, for
    # d = 1, 2 and 16, on shapes spanning several row blocks and (d = 1)
    # several column blocks, and empty sides; the full table and op_norms
    # bit for bit the loops
    p1, q1 = _diagonal_stack(rng, 3, 1), _diagonal_stack(rng, nm.DIST_BLOCK + 500, 1)
    p2, q2 = _diagonal_stack(rng, 150, 2), _diagonal_stack(rng, 130, 2)
    p16, q16 = _diagonal_stack(rng, 140, 16), _diagonal_stack(rng, 120, 16)
    assert len(q1) > nm.DIST_BLOCK and len(p2) * len(q2) > nm.DIST_BLOCK
    assert len(p16) * len(q16) > nm.DIST_BLOCK
    for p, q in ((p1, q1), (q1[:40], p1), (p2, q2), (p16, q16), (q16[:7], p16[:30]),
                 (p2, p2[:1]), (p16[:0], q16), (p16, q16[:0])):
        for got, want in zip(nm.nearest(p, q), _minima(_linf_loop(p, q))):
            assert np.array_equal(got, want)
        assert np.array_equal(_table(p[:40], q[:40]), _linf_loop(p[:40], q[:40]))
        assert np.array_equal(nm.op_norms(p), [max(np.abs(np.diagonal(a).real), default=0.0)
                                               for a in p])
    grid = np.stack([p16[:5], q16[:5]])                 # (2, 5, 16, 16)
    assert np.array_equal(nm.op_norms(grid), nm.op_norms(grid.reshape(10, 16, 16)).reshape(2, 5))


def _eig_norms(stack):
    """max |eigenvalue| of each matrix, straight from the eigensolver."""
    return np.max(np.abs(np.linalg.eigvalsh(stack)), axis=-1)


def test_is_diagonal_is_exact():
    # a stack is diagonal when every off-diagonal entry is zero, -0.0 too:
    # the smallest off-diagonal float, real or imaginary, or a NaN there
    # makes it dense, and a NaN matrix's norm is NaN, not its diagonal's
    base = np.array([np.diag([1.0, -2.0, 3.0]).astype(complex)] * 4)
    assert nm.is_diagonal(base)
    for value, diagonal in ((-0.0, True), (complex(-0.0, -0.0), True), (1e-300, False),
                            (1e-300j, False), (5e-324, False), (np.nan, False)):
        for i, j in ((0, 1), (2, 0), (1, 2)):
            stack = base.copy()
            stack[3, i, j] = value
            assert nm.is_diagonal(stack) == diagonal, (value, i, j)
            assert nm.is_diagonal(stack[None]) == diagonal
    assert np.isnan(nm.op_norms(np.array([[1.0, np.nan], [np.nan, -2.0]], dtype=complex)))
    # 1 x 1 and empty stacks have no off-diagonal entries
    assert nm.is_diagonal(np.full((5, 1, 1), 2.0 + 1j)) and nm.is_diagonal(np.ones((1, 1)))
    assert nm.is_diagonal(np.zeros((0, 3, 3), dtype=complex))
    assert nm.is_diagonal(np.zeros((2, 0, 3, 3), dtype=complex))


def test_is_diagonal_copies_nothing(rng):
    # the scan reads a view of the off-diagonal entries: an 8 MB stack is
    # decided with no temporary of its size
    stack = np.zeros((2000, 16, 16), dtype=complex)
    stack[:, np.arange(16), np.arange(16)] = rng.standard_normal((2000, 16))
    tracemalloc.start()
    try:
        diagonal = nm.is_diagonal(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diagonal
    assert peak < 2 ** 20


def test_diagonal_branch_is_eigvalsh(rng):
    # on diagonals with imaginary parts, which the eigensolver does not read,
    # the diagonal shortcuts give eigvalsh's numbers bit for bit: op_norms,
    # nearest's minima of the distance table, and farthest_first's starting
    # norms (a single point is chosen at a separation equal to its norm, and
    # not at the next float up)
    for d in range(1, 25):
        p, q = _diagonal_stack(rng, 12, d), _diagonal_stack(rng, 9, d)
        assert nm.is_diagonal(p) and np.diagonal(p, 0, 1, 2).imag.all()
        norms = _eig_norms(p)
        assert np.array_equal(nm.op_norms(p), norms)
        table = _eig_norms(p[:, None] - q[None, :])
        for got, want in zip(nm.nearest(p, q), _minima(table)):
            assert np.array_equal(got, want)
        for point, norm in zip(p, norms):
            assert nm.farthest_first(point[None], 1, norm) == ([0], False)
            assert nm.farthest_first(point[None], 1, np.nextafter(norm, np.inf)) == ([], False)


def test_diagonal_nets_match_the_pair_loop(rng):
    # nearest, covering_radius and farthest_first on diagonal stacks, bit
    # for bit the pair loop's table read by plain Python loops: offsets,
    # ceilings, duplicated points whose first index must win, d = 1, 2, 16,
    # row blocks and empty sides
    for d, n, m in ((1, 60, 300), (2, 150, 130), (16, 140, 120)):
        p, q = _diagonal_stack(rng, n, d), _diagonal_stack(rng, m, d)
        dupes = np.concatenate([p[:30], p[10:20], p[:5]])
        for a, b, offset, ceiling in (
                (p, q, 0.0, np.inf),
                (p, q, rng.random(n), 1.0 + rng.random((n, m))),
                (p, q, 0.0, 0.3),
                (p, np.concatenate([q, 9.0 * q[:1]]), 0.0, np.inf),    # a far last probe
                (dupes, dupes, 0.0, np.inf),
                (dupes, dupes[::-1], rng.random(len(dupes)), 2.0),
                (p[:1], q, 0.0, np.inf),
                (p[:0], q, 0.0, np.inf),
                (p, q[:0], 0.0, np.inf)):
            table = _linf_loop(a, b)
            off = np.broadcast_to(offset, (len(a),))
            cap = np.broadcast_to(ceiling, table.shape)
            t = [[min(cap[i, k], off[i] + table[i, k]) for k in range(len(b))]
                 for i in range(len(a))]
            cols = [[t[i][k] for i in range(len(a))] for k in range(len(b))]
            want = ([min(row, default=np.inf) for row in t],
                    [min(range(len(row)), key=row.__getitem__, default=-1) for row in t],
                    [min(col, default=np.inf) for col in cols],
                    [min(range(len(col)), key=col.__getitem__, default=-1) for col in cols])
            for got, w in zip(nm.nearest(a, b, offset, ceiling), want):
                assert np.array_equal(got, w)
            assert nm.covering_radius(a, b) == max(
                (min(table[:, k], default=np.inf) for k in range(len(b))), default=0.0)
        # every later copy of a duplicated point is nearest to its first copy
        assert np.array_equal(nm.nearest(dupes, dupes)[3][30:40], np.arange(10, 20))
        # greedy insertion from the origin: the farthest point from the net
        # so far, the first of ties, until the farthest is within the separation
        # or the cap is reached
        for points in (p, dupes):
            table = _linf_loop(points, points)
            start = [max(np.abs(np.diagonal(a).real)) for a in points]
            for cap, separation in ((10, 1e-12), (len(points), 1e-12),
                                    (len(points), 0.3 * max(start))):
                chosen, mind, capped = [], list(start), False
                while True:
                    k = max(range(len(mind)), key=mind.__getitem__)
                    if mind[k] < separation:
                        break
                    if len(chosen) == cap:
                        capped = True
                        break
                    chosen.append(k)
                    mind = [min(mind[i], table[i, k]) for i in range(len(mind))]
                assert nm.farthest_first(points, cap, separation) == (chosen, capped)
        assert nm.farthest_first(p[:0], 5, 0.1) == ([], False)


def _greedy_reference(stack, cap, separation):
    """The greedy insertion from the origin spelled out on the full distance
    table: (chosen, capped)."""
    dmat, mind, chosen = _table(stack, stack), nm.op_norms(stack), []
    while mind.max() >= separation:
        if len(chosen) == cap:
            return chosen, True
        k = int(np.argmax(mind))
        chosen.append(k)
        mind = np.minimum(mind, dmat[:, k])
    return chosen, False


def test_farthest_first(rng):
    pts = np.array([nm.random_hermitian(rng, 3) for _ in range(30)])
    assert nm.farthest_first(pts, 8, 0.5) == _greedy_reference(pts, 8, 0.5)
    assert _greedy_reference(pts, 8, 0.5)[1]
    assert nm.farthest_first(pts, 0, 0.0) == ([], True)
    spread, capped = nm.farthest_first(pts, 31, 1e-12)
    assert not capped
    assert sorted(spread) == list(range(30))
    # a cap that the stop rule reaches as well is not flagged
    assert nm.farthest_first(pts, 30, 1e-12) == (spread, False)
    # a dense d = 5 stack, screened by the HS lower bound, and a diagonal
    # d = 16 stack, updated from its diagonals: the same indices as the table
    dense = np.array([nm.random_hermitian(rng, 5) for _ in range(320)])
    diag = np.array([np.diag(rng.standard_normal(16)).astype(complex) for _ in range(120)])
    for stack, cap, separation in ((dense, 120, 1.0), (diag, 60, 0.5)):
        assert nm.farthest_first(stack, cap, separation) == _greedy_reference(
            stack, cap, separation)


def test_farthest_first_screens_dense_points(rng, monkeypatch):
    dense = np.array([nm.random_hermitian(rng, 5) for _ in range(320)])
    # one eigvalsh call for the starting norms, then one per insertion, on
    # the points the bounds keep
    solved = _counting_eigvalsh(monkeypatch)
    chosen, _ = nm.farthest_first(dense, 120, 1.0)
    start, *solved = solved
    assert start == len(dense)
    assert len(solved) == len(chosen) > 10
    assert max(solved) < len(dense)
    assert sum(solved) < 0.3 * len(dense) * len(solved)


def test_traceless_bound(rng):
    # |X| <= sqrt((d-1)/d) |X|_HS on traceless Hermitian stacks, with
    # equality at diag(d-1, -1, ..., -1)
    for d in range(2, 8):
        stack = np.array([nm.random_hermitian(rng, d) for _ in range(200)])
        stack -= (np.trace(stack, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)
        hs = np.sqrt(np.einsum("nab,nab->n", stack.conj(), stack).real)
        assert np.all(nm.op_norms(stack) <= nm.traceless_scale(d) * hs * (1.0 + 1e-12))
        assert nm.traceless_scale(d) < 1.0
        extreme = np.diag([d - 1.0] + [-1.0] * (d - 1)).astype(complex)
        assert nm.op_norm(extreme) == pytest.approx(
            nm.traceless_scale(d) * nm.hs_norm(extreme), rel=1e-14)


def test_covering_radius(rng, monkeypatch):
    # bitwise the max over probes of the nearest distance from the full
    # table, on dense, diagonal, mixed and empty inputs; dense probes
    # eigensolve fewer differences than the table
    def table(p, q):
        return np.max(np.min(_table(p, q), axis=0), initial=0.0)

    dense = np.array([nm.random_hermitian(rng, 4) for _ in range(150)])
    probes = np.array([nm.random_hermitian(rng, 4) for _ in range(60)])
    diag = np.array([np.diag(rng.standard_normal(6)).astype(complex) for _ in range(80)])
    dprobes = np.array([np.diag(rng.standard_normal(6)).astype(complex) for _ in range(40)])
    cases = ((dense, probes), (dense, 0.3 * probes), (dense, dense[:20]), (diag, dprobes),
             (diag, dprobes + nm.random_hermitian(rng, 6)), (dense, probes[:0]),
             (diag, dprobes[:0]), (dense[:1], probes))
    for p, q in cases:
        assert nm.covering_radius(p, q) == table(p, q)
    assert nm.covering_radius(dense, probes[:0]) == 0.0
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    nm.covering_radius(dense, probes)
    assert sum(solved) < 0.5 * len(dense) * len(probes)


def _nearest_table(p, q, offset=0.0, ceiling=np.inf):
    """nearest's four arrays from the full table."""
    offset = np.broadcast_to(np.asarray(offset, dtype=float), (len(p),))
    return _minima(np.minimum(ceiling, offset[:, None] + _table(p, q)))


def _counting_eigvalsh(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return solved


def test_nearest(rng, monkeypatch):
    # bitwise the min and argmin along both axes of the full table
    dense = np.array([nm.random_hermitian(rng, 4) for _ in range(90)])
    other = np.array([nm.random_hermitian(rng, 4) for _ in range(70)])
    diag = np.array([np.diag(rng.standard_normal(4)).astype(complex) for _ in range(50)])
    dupes = np.concatenate([dense[:30], dense[10:20], dense[:5]])      # tied rows and columns
    near = dense[rng.permutation(90)] + 0.05 * other[:1]
    norms_d, norms_o = nm.op_norms(dense), nm.op_norms(other)
    cases = [
        (dense, other, 0.0, np.inf),
        (dense, other, rng.random(90), norms_d[:, None] + norms_o[None, :]),
        (dense, other, 3.0 * rng.random(90), 2.0 + rng.random((90, 70))),    # ceiling often wins
        (dense, other, 0.0, 0.5),                                            # ceiling everywhere
        (dense, near, 0.0, np.inf),
        (diag, diag[::-1] + 0.1, rng.random(50), 1.5),
        (diag, other, 0.0, np.inf),
        (dupes, dupes, 0.0, np.inf),
        (dupes, dupes[::-1], 0.0, 5.0),
        (dense[:1], other, 0.0, np.inf),
    ]
    for p, q, offset, ceiling in cases:
        for got, want in zip(nm.nearest(p, q, offset, ceiling),
                             _nearest_table(p, q, offset, ceiling)):
            assert np.array_equal(got, want)
    row_min, row_arg, col_min, col_arg = nm.nearest(dense, other, 3.0 * rng.random(90), 1.0)
    assert np.all(row_min == 1.0) and np.all(row_arg == 0) and np.all(col_min == 1.0)
    # the first of tied entries: each point of dupes is nearest to its first copy
    assert np.array_equal(nm.nearest(dupes, dupes)[3][30:40], np.arange(10, 20))
    # empty sides: inf minima, -1 arguments
    row_min, row_arg, col_min, col_arg = nm.nearest(dense, other[:0])
    assert np.all(row_min == np.inf) and np.all(row_arg == -1) and col_min.shape == (0,)
    row_min, row_arg, col_min, col_arg = nm.nearest(diag[:0], other)
    assert row_min.shape == (0,) and np.all(col_min == np.inf) and np.all(col_arg == -1)
    # two nets of nearby points (d = 5): the bounds leave under 5% of the
    # table to the eigensolver, and a ceiling that provably wins leaves none
    pts = np.array([nm.random_hermitian(rng, 5) for _ in range(200)])
    moved = pts[rng.permutation(200)] + 0.05 * np.array(
        [nm.random_hermitian(rng, 5) for _ in range(200)])
    want = _nearest_table(pts, moved)
    solved = _counting_eigvalsh(monkeypatch)
    got = nm.nearest(pts, moved)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert 0 < sum(solved) < 0.05 * len(pts) * len(moved)
    solved.clear()
    nm.nearest(pts, moved, 0.0, 1e-3)
    assert sum(solved) == 0


def test_nearest_memory_is_blocked(rng):
    # the dense (200, 200, 16, 16) difference stack would take 164 MB
    p = np.array([nm.random_hermitian(rng, 16) for _ in range(200)])
    q = np.array([nm.random_hermitian(rng, 16) for _ in range(200)])
    dp = np.array([np.diag(rng.standard_normal(16)).astype(complex) for _ in range(200)])
    dq = np.array([np.diag(rng.standard_normal(16)).astype(complex) for _ in range(200)])
    for a, b in ((p, q), (dp, dq), (dp, q)):
        tracemalloc.start()
        try:
            row_min = nm.nearest(a, b)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row_min.shape == (200,)
        assert peak < 16 * 2 ** 20


def test_op_dists_memory_is_blocked(rng):
    # the operator-norm distances of two diagonal stacks are taken in blocks
    # of point planes: the (24, 600, 600) difference of the pair would take
    # 138 MB; nearest's four arrays match the pair loop's table
    p, q = _diagonal_stack(rng, 600, 24), _diagonal_stack(rng, 600, 24)
    tracemalloc.start()
    try:
        got = nm.nearest(p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(a) for a in got] == [600, 600, 600, 600]
    assert peak < 16 * 2 ** 20
    for g, want in zip(got, _minima(_linf_loop(p, q))):
        assert np.array_equal(g, want)


def test_nearest_scans_each_stack_once(rng, monkeypatch):
    # one is_diagonal scan of each diagonal stack, and none of the second
    # stack once the first is dense
    scans = []
    is_diagonal = nm.is_diagonal

    def counting(stack):
        scans.append(len(stack))
        return is_diagonal(stack)

    monkeypatch.setattr(nm, "is_diagonal", counting)
    diag, dense = _diagonal_stack(rng, 30, 4), np.array(
        [nm.random_hermitian(rng, 4) for _ in range(20)])
    nm.nearest(diag, diag[:10])
    assert scans == [30, 10]
    scans.clear()
    nm.nearest(dense, diag)
    assert scans == [20]


def test_column_bound(rng):
    # max_j |X e_j| <= |X| <= |X|_HS, with equality on the left for diagonal
    # matrices and on the right for rank one
    for d in (1, 2, 3, 5, 8):
        stack = np.array([nm.random_hermitian(rng, d) for _ in range(200)])
        lower, hs = nm.norm_bounds(stack)
        norms = nm.op_norms(stack)
        assert np.all(lower <= norms * (1.0 + 1e-12))
        assert np.all(norms <= hs * (1.0 + 1e-12))
        assert np.all(lower >= hs / np.sqrt(d) * (1.0 - 1e-12))
        assert np.allclose(lower, [max(np.linalg.norm(m[:, j]) for j in range(d)) for m in stack],
                           rtol=1e-14, atol=0.0)
        diag = np.array([np.diag(rng.standard_normal(d)).astype(complex) for _ in range(20)])
        assert np.allclose(nm.norm_bounds(diag)[0], nm.op_norms(diag), rtol=1e-15, atol=0.0)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rank_one = np.outer(v, v.conj())[None]
        assert nm.norm_bounds(rank_one)[1] == pytest.approx(nm.op_norms(rank_one)[0], rel=1e-13)
