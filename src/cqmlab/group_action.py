"""Sampled compact groups acting on matrix spaces.

A :class:`SampledGroup` is a finite list of group elements with
quadrature weights for the Haar integral, a length function, and an
exact inverse pairing.  The exact finite groups are one family, Z_q^n
inside the n-torus (``torus_group`` and its characters
``torus_characters``): n = 1 is the cycle Z_q in the circle, n = 2 the
fuzzy torus's group.  Quadrature grids of continuous groups (SU(2)) are
flagged ``is_exact=False``.

The translation-invariant seminorm of an action is the sup over sampled
non-identity elements of ``|alpha_x(a) - a| / l(x)``.  Each constructor
declares the elements that sup needs, its ``kernel``, from structural
facts.  On Z_q^n the length is the word length of the n generators, so
their quotients dominate every other element's (``torus_group``).  On
SU(2) implementers are isometries and ``l(x^-1) = l(x)``, so one element
of each inverse pair suffices; and every irreducible implementer has
``U(-x) = +-U(x)``, so ``alpha_{-x} = alpha_x`` and the shorter of x and
-x dominates.  ``cqms.Cqms`` builds the one operator that forms the
quotients over the kernel.  Multiplicities come from one trace
quadrature of the action on the space that a given Hilbert-Schmidt
orthonormal basis spans (a space's ``ortho``); ergodicity is one of
them, the trivial character's, which must be 1.  All reported quantities
refer to the sampled group; every grid carries a descriptor so results
can be stamped with it.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_INTEGER_TOL = 0.05


class QuadratureError(Exception):
    """Raised when a quadrature result is too far from an admissible value."""

    def __init__(self, message, raw=None):
        super().__init__(message)
        self.raw = raw


@dataclass(frozen=True)
class SampledGroup:
    """Finite sample of a compact group with Haar quadrature weights."""

    elements: tuple                # opaque labels
    weights: np.ndarray            # nonnegative, sums to 1
    lengths: np.ndarray            # l(x) >= 0, zero only at the identity
    identity_index: int
    inverse: np.ndarray            # permutation of indices, x -> x^{-1}
    kernel: np.ndarray             # ascending indices the seminorm sup needs
    is_exact: bool
    descriptor: str = ""

    @property
    def size(self) -> int:
        return len(self.elements)

    def seminorm_support(self) -> np.ndarray:
        """One representative per inverse pair, identity excluded: since the
        implementers are isometries, |alpha_x(a) - a| = |alpha_{x^-1}(a) - a|
        and l(x) = l(x^-1), so the seminorm sup only needs half the sample."""
        idx = np.arange(self.size)
        keep = (idx != self.identity_index) & (idx <= self.inverse)
        return idx[keep]

    def haar_mean_length(self) -> float:
        """Quadrature value of the Haar integral of the length function."""
        return float(np.dot(self.weights, self.lengths))


@dataclass(frozen=True)
class IrrepCharacter:
    """Character of one irreducible representation, tabulated on the sample."""

    label: object
    dimension: int
    values: np.ndarray


@dataclass
class UnitaryAction:
    """A sampled group together with unitary implementers of fixed dimension."""

    group: SampledGroup
    implementers: np.ndarray       # (size, d, d)

    @property
    def dim(self) -> int:
        return self.implementers.shape[-1]

    def seminorm_kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, lengths) of the group's declared kernel.  The sup over
        it is the sup over the sample when the implementers are unitary and
        follow the group law up to phase (on Z_q^n the generators then
        dominate every element) and, on an SU(2) grid, an irreducible spin
        (``examples.su2_implementers``): each dropped element acts as a kept
        one of no greater length does."""
        return self.group.kernel, self.group.lengths[self.group.kernel]


# ---------------------------------------------------------------------------
# group constructors


def _arc(k: np.ndarray, m: int) -> np.ndarray:
    k = np.mod(k, m)
    return 2.0 * np.pi * np.minimum(k, m - k) / m


def torus_group(q: int, n: int) -> SampledGroup:
    """Z_q^n inside the n-torus with the flat word length sum_i arc(x_i), the
    arc length of the circle when n = 1.  Elements are n-tuples, in
    lexicographic order from the identity (0, ..., 0).

    The kernel is the n generators e_i, at the indices ``np.sort(strides)``.
    Write x = sum_i k_i e_i with centred |k_i| <= q / 2, so that l(x) =
    sum_i |k_i| l(e_i) with l(e_i) = 2 pi / q.  For an action alpha of the
    group by isometries, alpha_x is the product of the alpha_{e_i}^{k_i};
    telescoping that product one generator step at a time gives
    ``|alpha_x a - a| <= sum_i |k_i| |alpha_{e_i} a - a|``, at most l(x)
    max_i |alpha_{e_i} a - a| / l(e_i).  So the seminorm sup over the whole
    sample is attained on the generators."""
    if q < 2:
        raise ValueError("need q >= 2")
    grids = np.indices((q,) * n).reshape(n, -1).T      # (q^n, n)
    strides = np.array([q ** (n - 1 - i) for i in range(n)])
    inverse = np.mod(-grids, q) @ strides
    return SampledGroup(
        elements=tuple(tuple(int(c) for c in row) for row in grids),
        weights=np.full(q ** n, 1.0 / q ** n),
        lengths=_arc(grids, q).sum(axis=1),
        identity_index=0,
        inverse=inverse,
        kernel=np.sort(strides),
        is_exact=True,
        descriptor=f"Z_{q}^{n} in T^{n} (flat word length)",
    )


def torus_characters(q: int, n: int) -> list[IrrepCharacter]:
    """The q^n characters x -> exp(2 pi i <w, x> / q) of Z_q^n, labelled by
    the n-tuple w, in the element order of ``torus_group(q, n)``."""
    grids = np.indices((q,) * n).reshape(n, -1).T
    chars = []
    for w in grids:
        vals = np.exp(2j * np.pi * (grids @ w) / q)
        chars.append(IrrepCharacter(label=tuple(int(c) for c in w), dimension=1, values=vals))
    return chars


@dataclass(frozen=True)
class Su2Grid:
    """Euler-angle product quadrature of SU(2), symmetrized under inversion.

    ``cos_angles`` holds the cosine of the geodesic angle on the
    unit-quaternion sphere (half the space-rotation angle), whose arccos is
    the length function.
    """

    group: SampledGroup
    cos_angles: np.ndarray
    euler: np.ndarray              # (size, 3) alpha, beta, gamma of the base point


def su2_euler_grid(n_alpha: int, n_beta: int, n_gamma: int) -> Su2Grid:
    """Product grid: uniform alpha in [0,2pi), Gauss-Legendre in cos(beta),
    uniform gamma in [0,4pi).  Each node is paired with its inverse at half
    weight so the sample is exactly closed under inversion; the identity is
    adjoined with weight zero.

    The kernel is the nodes, which stand for their inverses.  When n_gamma
    is even, the node gamma + 2 pi (half the gamma grid away) is -x, whose
    spin-j implementer is (-1)^{2j} U(x): both act as one automorphism, so
    of each such pair the kernel keeps the one of smaller (length, index).
    This holds for irreducible implementers, not for a sum of spins of
    both parities."""
    u, wu = np.polynomial.legendre.leggauss(n_beta)
    betas = np.arccos(u)
    alphas = 2.0 * np.pi * np.arange(n_alpha) / n_alpha
    gammas = 4.0 * np.pi * np.arange(n_gamma) / n_gamma

    aa, bb, gg = np.meshgrid(alphas, betas, gammas, indexing="ij")
    aa, bb, gg = aa.ravel(), bb.ravel(), gg.ravel()
    wa = np.full(n_alpha, 1.0 / n_alpha)
    wb = wu / 2.0
    wg = np.full(n_gamma, 1.0 / n_gamma)
    ww = (wa[:, None, None] * wb[None, :, None] * wg[None, None, :]).ravel()

    # half the trace of the defining 2x2 matrix of each node, whose diagonal
    # is (h, conj h) with h = exp(-i (alpha + gamma) / 2) cos(beta / 2)
    half = np.exp(-0.5j * (aa + gg)) * np.cos(bb / 2.0)
    n = aa.size
    weights = np.concatenate([[0.0], ww / 2.0, ww / 2.0])
    cos_ang = half.real
    cos_angles = np.concatenate([[1.0], cos_ang, cos_ang])
    lengths = np.arccos(np.clip(cos_angles, -1.0, 1.0))
    inverse = np.concatenate([[0], np.arange(n) + 1 + n, np.arange(n) + 1])
    node = np.arange(n)
    kernel = 1 + node
    if n_gamma % 2 == 0:
        # the node of -x = (alpha, beta, gamma +- 2 pi)
        partner = node - node % n_gamma + (node + n_gamma // 2) % n_gamma
        own, other = lengths[kernel], lengths[1 + partner]
        kernel = kernel[(own < other) | ((own == other) & (node < partner))]
    euler = np.concatenate([np.zeros((1, 3)),
                            np.stack([aa, bb, gg], axis=1),
                            np.stack([aa, bb, gg], axis=1)])
    labels = tuple(["e"] + [("g", i) for i in range(n)] + [("ginv", i) for i in range(n)])
    group = SampledGroup(
        elements=labels,
        weights=weights,
        lengths=lengths,
        identity_index=0,
        inverse=inverse,
        kernel=kernel,
        is_exact=False,
        descriptor=f"SU(2) Euler grid {n_alpha}x{n_beta}x{n_gamma}, inversion-symmetrized",
    )
    return Su2Grid(group=group, cos_angles=cos_angles, euler=euler)


def su2_characters(grid: Su2Grid, two_l_values) -> list[IrrepCharacter]:
    """Spin-l characters chi_l = U_{2l}(cos phi) on the sampled grid.

    ``two_l_values`` lists 2l as integers (so integer and half-integer
    spins are both addressable); the conjugate of every SU(2) irrep is
    itself.  U_n comes from the recurrence U_{n+1} = 2x U_n - U_{n-1} from
    U_{-1} = 0, U_0 = 1, in the order of operations scipy's integer-degree
    ``eval_chebyu`` uses, so the values agree with it bit for bit.
    """
    two_l_values = list(two_l_values)
    if min(two_l_values, default=0) < 0:
        raise ValueError(f"2l must be nonnegative, got {min(two_l_values)}")
    x2 = 2.0 * grid.cos_angles
    prev, cur = np.zeros_like(x2), np.ones_like(x2)
    chebyu = [cur]                                  # U_0, U_1, ... on the grid
    for _ in range(max(two_l_values, default=0)):
        prev, cur = cur, x2 * cur - prev
        chebyu.append(cur)
    chars = []
    for two_l in two_l_values:
        vals = chebyu[two_l].astype(complex)
        chars.append(IrrepCharacter(label=f"spin-{two_l}/2" if two_l % 2 else f"spin-{two_l // 2}",
                                    dimension=two_l + 1, values=vals))
    return chars


# ---------------------------------------------------------------------------
# operations


def action_traces(action: UnitaryAction, space_basis: np.ndarray) -> np.ndarray:
    """Trace of alpha_x on the complexified space, for each x, computed on
    ``space_basis``, a Hilbert-Schmidt orthonormal basis (n, d, d) of its
    complex span.  A basis of d^2 elements spans all d x d matrices, on
    which the trace is |tr U_x|^2.
    """
    u = action.implementers
    e = np.asarray(space_basis, dtype=complex)
    if e.shape[0] == action.dim ** 2:
        tr = np.trace(u, axis1=1, axis2=2)
        return (tr * tr.conj()).real
    out = np.empty(u.shape[0])
    for i in range(u.shape[0]):
        moved = np.einsum("ab,kbc,dc->kad", u[i], e, u[i].conj(), optimize=True)
        out[i] = np.real(np.einsum("kab,kab->", e.conj(), moved, optimize=True))
    return out


def multiplicity(action: UnitaryAction, char: IrrepCharacter, space_basis: np.ndarray) -> int:
    """Multiplicity of an irreducible in the complexified action on the space
    that ``space_basis`` spans (see :func:`multiplicities`)."""
    return multiplicities(action, [char], space_basis)[0][1]


def multiplicities(action: UnitaryAction, chars, space_basis: np.ndarray,
                   integer_tol: float = DEFAULT_INTEGER_TOL) -> list[tuple[complex, int]]:
    """(raw quadrature value, checked multiplicity) per character, from one
    evaluation of the traces.

    Character orthogonality: the multiplicity is the quadrature of conj(chi)
    times the trace of alpha_x on the space.  The raw value must sit within
    ``integer_tol`` of a nonnegative integer, else a :class:`QuadratureError`
    carrying the raw value is raised ("quadrature too coarse").
    """
    traces = action_traces(action, space_basis)
    out = []
    for char in chars:
        raw = complex(np.dot(action.group.weights, char.values.conj() * traces))
        m = int(round(raw.real))
        if m < 0 or abs(raw - m) > integer_tol:
            raise QuadratureError(f"quadrature too coarse for multiplicity of "
                                  f"{char.label!r}: raw={raw:.6f}", raw=raw)
        out.append((raw, m))
    return out


def ergodicity_check(action: UnitaryAction, space_basis: np.ndarray) -> bool:
    """True iff the action is ergodic on the space that ``space_basis`` spans:
    the trivial character, constant 1 on the sample, has multiplicity 1
    there (the scalars alone are fixed).  One trace quadrature, as
    :func:`multiplicities` reads it, so a grid too coarse to integrate the
    trivial character raises its :class:`QuadratureError`."""
    trivial = IrrepCharacter(label="trivial", dimension=1,
                             values=np.ones(action.group.size, dtype=complex))
    return multiplicity(action, trivial, space_basis) == 1
