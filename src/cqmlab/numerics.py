"""Dense Hermitian linear algebra primitives used by every other module.

Matrices are plain complex numpy arrays.  Everything here is pure and
safe for concurrent reads; nothing mutates its input.  Real coefficient
rows become matrices through :func:`combine`, sum_k c_k B_k over a basis
stack, the terms added in order of k on real arrays.

Target scale is desk-size: dimensions up to a few dozen.  The
eigensolver is LAPACK's Hermitian driver (`numpy.linalg.eigh`), which is
deterministic on a fixed platform and fast enough that the inner loops
elsewhere (seminorm sups, net construction) can batch thousands of
small eigenproblems per call.

Distances between stacks go through :func:`nearest`, the min and the first
argmin along both axes of the table |p_i - q_k| (with a per-row offset and a
ceiling).  It forms the differences ``p_i - q_k`` in blocks of at most
``DIST_BLOCK`` = 2**14 entries, so this module alone bounds their memory, and
it decides, with one exact :func:`is_diagonal` scan of each stack, when the
diagonal shortcut applies.  When both stacks are diagonal a distance is the
l-infinity distance of the real parts of two diagonals, which is all that
LAPACK's Hermitian eigensolver reads of a diagonal matrix, so the shortcut
gives ``eigvalsh``'s numbers bit for bit.
The diagonals are then read once as contiguous float (d, n) planes, plane j
holding the real part of every matrix's j-th entry, so the max over the d
entries is d elementwise maxima over whole planes, not a reduction along a
short last axis, which numpy takes one row at a time.
Otherwise it eigensolves few of the table's entries.  :func:`farthest_first`
grows a net from the origin by greedy insertion, and reads a diagonal stack,
as :func:`op_norms` does, in the same planes.

Screening.  For a d x d Hermitian X two cheap norms bracket the operator
norm: ``max_j |X e_j| <= |X| <= |X|_HS`` (:func:`norm_bounds`, one pass over
the squared entries, where ``|X|`` costs an eigensolve).  The left side
holds because every e_j is a unit vector, with equality for diagonal X; it
is at least ``|X|_HS / sqrt(d)``.  The right side tightens to ``sqrt((d-1)/d)
|X|_HS`` for traceless X (:func:`traceless_scale`), the one bound ``cqms``
screens its seminorm sups with.  :func:`nearest` eigensolves only the entries
whose lower bound can still reach the smallest upper bound, or exact value,
in their row or column, and :func:`covering_radius` is the max of its column
minima.  :func:`farthest_first` skips a point whose lower bound to the new
net point is already at least its current distance to the net, and
eigensolves the differences it keeps itself.  Each skip is taken with a
1e-9 relative margin, far above the rounding of either norm, and each
matrix's ``eigvalsh`` result does not depend on the batch around it, so
screened and unscreened runs give the same bits.
"""

import math

import numpy as np

# Structural checks (Hermiticity, unitarity) at 1e-10, numerical
# equalities at 1e-8.
STRUCTURAL_TOL = 1e-10
NUMERIC_TOL = 1e-8

DIST_BLOCK = 2 ** 14


class NumericsError(Exception):
    """Raised when a matrix fails a structural check (``check_hermitian``)."""


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if not np.all(np.isfinite(a.view(float))):
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= STRUCTURAL_TOL * (1.0 + np.max(np.abs(a))))


def check_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        dev = float(np.max(np.abs(a - a.conj().T))) if a.ndim == 2 else float("nan")
        raise NumericsError(f"matrix is not Hermitian within {STRUCTURAL_TOL:g} "
                            f"(deviation {dev:.3e})")
    return a


def is_unitary(u: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    d = u.shape[0]
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(d))) <= tol)


def op_norm(a: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: max |eigenvalue|."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh(a)
    return float(np.max(np.abs(w)))


def is_diagonal(stack: np.ndarray) -> bool:
    """True when every off-diagonal entry of the stack (..., d, d) is zero;
    -0.0 is zero and NaN is not.  The test is exact, so a stack it passes
    has nothing off the diagonal for a shortcut to drop.  On a C-contiguous
    stack it reads one strided view of the off-diagonal entries and copies
    none of them."""
    d = stack.shape[-1]
    flat = stack.reshape(-1, d * d)
    # row-major d x d minus its first entry: d - 1 runs of d off-diagonal
    # entries, each followed by the next diagonal entry
    return not flat[:, 1:].reshape(len(flat), d - 1, d + 1)[:, :, :d].any()


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of Hermitian matrices, shape (..., d, d).
    A diagonal stack (:func:`is_diagonal`) is read off its diagonal planes
    (:func:`_diagonal_planes`), max_j |Re X_jj|: all that ``eigvalsh`` reads
    of a diagonal matrix, so the same numbers, bit for bit."""
    stack = np.asarray(stack, dtype=complex)
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    if is_diagonal(stack):
        planes = _diagonal_planes(stack)
        return np.max(np.abs(planes, out=planes), axis=0)
    w = np.linalg.eigvalsh(stack)
    return np.max(np.abs(w), axis=-1)


def _diagonal_planes(stack: np.ndarray) -> np.ndarray:
    """The real parts of the diagonals of a stack (..., d, d) as one
    contiguous float (d, ...) array, plane j holding the real part of the
    j-th diagonal entry of every matrix."""
    planes = np.empty(stack.shape[-1:] + stack.shape[:-2])
    np.copyto(np.moveaxis(planes, 0, -1), np.diagonal(stack, 0, -2, -1).real)
    return planes


def norm_bounds(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max_j |X e_j|, |X|_HS) for each matrix X of a complex stack
    (..., d, d): the largest column norm and the Hilbert-Schmidt norm, which
    bracket the operator norm, ``max_j |X e_j| <= |X| <= |X|_HS``.  Both come
    from one pass over the squared entries."""
    sq = np.abs(stack)
    sq *= sq
    cols = np.sum(sq, axis=-2)
    return np.sqrt(np.max(cols, axis=-1)), np.sqrt(np.sum(cols, axis=-1))


def nearest(p: np.ndarray, q: np.ndarray, offset=0.0, ceiling=np.inf):
    """(row_min, row_arg, col_min, col_arg): the min and the first argmin
    along each axis of ``T = np.minimum(ceiling, offset[:, None] + D)``, bit
    for bit, where ``D = op_norms(p[:, None] - q[None, :])`` is the full
    table of distances |p_i - q_k|.  ``offset`` broadcasts to (len(p),) and
    ``ceiling`` to (len(p), len(q)).  Along an empty axis the min is inf and
    the argmin -1.

    When both stacks are diagonal (:func:`is_diagonal`, one scan of each) D
    is formed whole, in blocks of at most ``DIST_BLOCK`` entries (whole rows
    when one fits).  The diagonals are read once as (d, n) planes
    (:func:`_diagonal_planes`), and a block of D is the elementwise max over
    j of its (rows, cols) planes of |p_ij - q_kj|, on the real parts, each
    formed in one plane-sized float buffer: one subtraction, one abs and an
    exact max per entry, the same numbers as ``op_norms``'s diagonal branch
    and as ``eigvalsh`` of the difference.
    Otherwise :func:`norm_bounds` of the differences, in blocks of at most
    ``DIST_BLOCK`` entries, bracket every entry, ``lo <= T <= hi``, and an
    entry with ``lo >= ceiling`` is the ceiling.  The entry with the
    smallest hi in each row and each column is eigensolved first, and its
    exact value replaces its hi.  Then only the entries whose lo is at most
    their row's or their column's smallest hi are eigensolved: any other is
    above both minima, so it is neither a min nor an argmin.
    """
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    n, m = len(p), len(q)
    offset = np.broadcast_to(np.asarray(offset, dtype=float), (n,))[:, None]
    ceiling = np.broadcast_to(np.asarray(ceiling, dtype=float), (n, m))
    if n == 0 or m == 0:
        return np.full(n, np.inf), np.full(n, -1), np.full(m, np.inf), np.full(m, -1)
    if is_diagonal(p) and is_diagonal(q):
        p, q = _diagonal_planes(p), _diagonal_planes(q)
        table = np.empty((n, m))
        cols = min(m, DIST_BLOCK)
        rows = DIST_BLOCK // cols
        diff = np.empty((rows, cols))
        for i in range(0, n, rows):
            for j in range(0, m, cols):
                block = table[i:i + rows, j:j + cols]
                r, c = block.shape
                planes = zip(p[:, i:i + r, None], q[:, j:j + c])
                np.abs(np.subtract(*next(planes), out=block), out=block)
                for pk, qk in planes:
                    mags = np.abs(np.subtract(pk, qk, out=diff[:r, :c]), out=diff[:r, :c])
                    np.maximum(block, mags, out=block)
        table = np.minimum(ceiling, offset + table)
        return np.min(table, 1), np.argmin(table, 1), np.min(table, 0), np.argmin(table, 0)
    d = p.shape[-1]
    lo, hi = np.empty((n, m)), np.empty((n, m))
    cols = max(1, min(m, DIST_BLOCK // (d * d)))
    rows = max(1, DIST_BLOCK // (cols * d * d))
    for i in range(0, n, rows):
        for j in range(0, m, cols):
            lo[i:i + rows, j:j + cols], hi[i:i + rows, j:j + cols] = norm_bounds(
                p[i:i + rows, None] - q[None, j:j + cols])
    # 1e-9 relative covers rounding, 1e-150 absolute squares that underflow;
    # float addition is monotone, so adding the offset keeps both bounds
    lo = offset + (lo * (1.0 - 1e-9) - 1e-150)
    hi = np.minimum(ceiling, offset + (hi * (1.0 + 1e-9) + 1e-150))
    capped = lo >= ceiling
    table = np.where(capped, ceiling, np.inf)

    def solve(mask):
        ri, ci = np.nonzero(mask & ~capped)
        chunk = max(1, DIST_BLOCK // (d * d))
        for s in range(0, ri.size, chunk):
            r, c = ri[s:s + chunk], ci[s:s + chunk]
            dist = np.max(np.abs(np.linalg.eigvalsh(p[r] - q[c])), axis=-1)
            table[r, c] = hi[r, c] = np.minimum(ceiling[r, c], offset[r, 0] + dist)
        lo[ri, ci] = np.inf                    # solved: never again

    first = np.zeros((n, m), dtype=bool)
    first[np.arange(n), np.argmin(hi, axis=1)] = True
    first[np.argmin(hi, axis=0), np.arange(m)] = True
    solve(first)
    solve(lo <= np.maximum(np.min(hi, axis=1)[:, None], np.min(hi, axis=0)))
    return np.min(table, 1), np.argmin(table, 1), np.min(table, 0), np.argmin(table, 0)


def farthest_first(points: np.ndarray, cap: int, separation: float) -> tuple[list, bool]:
    """Greedy farthest-point insertion from the origin: (indices of
    ``points``, capped).  Each index is the point farthest from the origin
    and the points chosen so far, until that distance is below
    ``separation`` or ``cap`` points are chosen; ``capped`` is true when the
    cap ended the insertion with the farthest point still at least
    ``separation`` away.  An empty stack gives ([], False).  The starting
    distances are the norms |p_i|, the same numbers as :func:`op_norms`, and
    the indices are those of the same insertion on the full table
    ``op_norms(points[:, None] - points[None, :])``, bit for bit.

    A diagonal stack is updated from the real parts of its diagonals, read
    once as float (d, n) planes: each insertion subtracts the new point's
    column from them and takes the max of the |differences| over the d
    planes, in buffers made before the loop, so every distance is the same
    number as the max over the (n, d) rows of |real diagonal differences|,
    and as ``eigvalsh`` of the difference.  For a dense
    stack, a point whose HS distance to the new net point k satisfies
    ``|p_i - p_k|_HS / sqrt(d) * (1 - 1e-9) >= dists[i]`` has
    ``|p_i - p_k| >= dists[i]``, so the minimum keeps ``dists[i]`` exactly;
    the survivors are screened again by the larger column-norm bound of
    :func:`norm_bounds`, and only the rest are eigensolved.  The starting
    norms come from the same planes (their max |.| over the d planes) or from
    one ``eigvalsh`` of the stack.

    The squared HS distances come in Gram form, ``s_i + s_k - 2 <p_i, p_k>``
    from the squared norms s of the m = 2 d^2 real entries, with no (N, m)
    difference.  Each of the m-term sums s_i, s_k and <p_i, p_k> is off by at
    most m u times s_i, s_k and (s_i + s_k) / 2 (u = eps / 2, the unit
    roundoff, in any summation order), and the two final additions by at most
    u times 3 (s_i + s_k), so the computed form is within (m + 2) eps (s_i +
    s_k) of the exact one.  The screen subtracts twice that margin,
    2 (m + 2) eps (s_i + s_k), before its square root, so it skips only
    points that the exact HS screen skips.  A point either screen keeps but
    whose operator distance is at least ``dists[i]`` leaves ``dists[i]``
    unchanged, so both screens insert the same points.
    """
    points = np.asarray(points, dtype=complex)
    if not len(points):
        return [], False
    diagonal = is_diagonal(points)
    if diagonal:
        planes = _diagonal_planes(points)
        diff, row = np.empty(planes.shape), np.empty(len(points))
        dists = np.max(np.abs(planes, out=diff), axis=0)
    else:
        dists = np.max(np.abs(np.linalg.eigvalsh(points)), axis=-1)
        flat = realify(points)
        sq = np.einsum("ij,ij->i", flat, flat)
        margin = 2.0 * (flat.shape[1] + 2) * np.finfo(float).eps
        scale = (1.0 - 1e-9) / math.sqrt(points.shape[-1])
    chosen = []
    while True:
        k = int(np.argmax(dists))
        if dists[k] < separation:
            break
        if len(chosen) == cap:
            return chosen, True
        chosen.append(k)
        if diagonal:
            np.abs(np.subtract(planes, planes[:, k, None], out=diff), out=diff)
            np.minimum(dists, np.max(diff, axis=0, out=row), out=dists)
        else:
            total = sq + sq[k]
            hs2 = total * (1.0 - margin) - 2.0 * (flat @ flat[k])
            near = np.flatnonzero(np.sqrt(np.maximum(hs2, 0.0)) * scale < dists)
            near = near[norm_bounds(points[near] - points[k])[0] * (1.0 - 1e-9) < dists[near]]
            dists[near] = np.minimum(
                dists[near], np.max(np.abs(np.linalg.eigvalsh(points[near] - points[k])), axis=-1))
    return chosen, False


def covering_radius(points: np.ndarray, probes: np.ndarray) -> float:
    """max_j min_i |points_i - probes_j|, 0.0 when there are no probes: the
    largest of :func:`nearest`'s column minima, so the same number as
    ``np.max(np.min(D, axis=0), initial=0.0)`` on the full table ``D =
    op_norms(points[:, None] - probes[None, :])``, bit for bit."""
    return float(np.max(nearest(points, probes)[2], initial=0.0))


def quotient_norm(a: np.ndarray) -> float:
    """Distance from ``a`` to the real multiples of the identity.

    For Hermitian ``a`` the minimizing shift is the midpoint of the
    spectrum, so the value is (lambda_max - lambda_min) / 2.
    """
    a = np.asarray(a, dtype=complex)
    w = np.linalg.eigvalsh(a)
    return float(w[-1] - w[0]) / 2.0


def realify(mats: np.ndarray) -> np.ndarray:
    """Rows [Re m, Im m] of the flattened matrices: the real dot product of
    two rows is Re tr(a^dagger b)."""
    m = np.asarray(mats, dtype=complex)
    m = m.reshape(m.shape[0], math.prod(m.shape[1:]))
    return np.concatenate([m.real, m.imag], axis=1)


def combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_k c_k B_k for real coefficient rows (..., k) and a basis (k, d,
    d): a complex (..., d, d) stack.  The terms are added in order of k,
    starting from zero, so each entry is the number that
    ``np.einsum("...k,kab->...ab", coeffs, basis)`` gives, bit for bit; a
    BLAS product adds them in another order.  Any basis but a diagonal one
    is summed on its real (k, 2 d^2) view.  A diagonal basis
    (:func:`is_diagonal`) is summed on the real parts of its diagonals, and
    the result is +0.0 off the diagonal, as einsum's sum of zeros from
    zero is."""
    c = np.asarray(coeffs, dtype=float)
    basis = np.asarray(basis, dtype=complex)
    k, d = basis.shape[0], basis.shape[-1]
    diagonal = is_diagonal(basis)
    terms = np.diagonal(basis, 0, 1, 2).real if diagonal else basis.reshape(k, d * d).view(float)
    if c.ndim == 1:
        # one row: its k products at once, then their running sum from zero
        products = np.concatenate([np.zeros((1, terms.shape[1])), c[:, None] * terms])
        total = np.add.accumulate(products)[-1]
    else:
        total = np.zeros(c.shape[:-1] + terms.shape[1:])
        for ck, term in zip(np.moveaxis(c, -1, 0), terms):
            total += ck[..., None] * term
    if not diagonal:
        return total.view(complex).reshape(c.shape[:-1] + (d, d))
    out = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    out.reshape(-1, d * d)[:, ::d + 1] = total.reshape(-1, d)
    return out


def complement_basis(v: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the orthogonal complement of a nonzero real
    vector, as the columns of an (n, n-1) C-contiguous array: the last n-1
    right singular vectors of the row v.  The copy matters, because the
    strides of a matrix decide its BLAS path, so the transposed view would
    give products that differ in the last bits."""
    return np.ascontiguousarray(np.linalg.svd(v[None, :])[2][1:].T)


def traceless_scale(d: int) -> float:
    """sqrt((d-1)/d): a traceless Hermitian d x d X has ``|X| <=
    traceless_scale(d) * |X|_HS``, with equality for diag(d-1, -1, ..., -1).
    (Its eigenvalues sum to 0, so if one is t the other d - 1 sum to -t and
    ``|X|_HS^2 >= t^2 + t^2 / (d - 1)``.)"""
    return math.sqrt((d - 1) / d)


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0
