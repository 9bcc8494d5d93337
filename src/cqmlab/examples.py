"""Bundled matrix-algebra models of classical spaces.

Three families at finite scale:

* ``fuzzy_torus(q, p)`` - the q x q clock/shift algebra carrying the
  ergodic Z_q x Z_q translation action with the flat word length;
* ``fuzzy_sphere(two_j)`` - the full matrix algebra of a spin-j
  representation under SU(2) conjugation sampled on an Euler grid;
* ``commutative_cycle(m)`` - functions on m circle points as diagonal
  matrices under the cyclic shift, the classical recovery case.

``FAMILIES`` is the table scenario files read: per family its parameter
ranges, its builder and its character table.

``berezin_maps`` supplies the covariant symbol transform and its
adjoint for the sphere family; they are the raw material for the
sphere-to-sphere comparison maps used by the distance estimators.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import group_action as ga
from . import numerics as nm
from .cqms import Cqms, HermitianSpace, diagonal_space, full_matrix_space

DEFAULT_SU2_GRID = (14, 12, 14)

_grid_cache: dict = {}


def grid_dims(grid=DEFAULT_SU2_GRID) -> tuple:
    """SU(2) grid dimensions from "12x12x12" or a sequence of three integers."""
    dims = tuple(int(x) for x in (grid.split("x") if isinstance(grid, str) else grid))
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"SU(2) grid {grid!r} is not three positive integers")
    return dims


def su2_grid(dims=DEFAULT_SU2_GRID) -> ga.Su2Grid:
    """Shared, cached SU(2) Euler grid so family members see one sample."""
    dims = grid_dims(dims)
    if dims not in _grid_cache:
        _grid_cache[dims] = ga.su2_euler_grid(*dims)
    return _grid_cache[dims]


# ---------------------------------------------------------------------------
# fuzzy torus


def clock_and_shift(q: int, p: int = 1):
    """The q x q clock (step p) and shift pair with V U = e^{2 pi i p / q} U V
    for U the shift and V the clock."""
    omega = np.exp(2j * np.pi * p / q)
    clock = np.diag(omega ** np.arange(q))
    shift = np.zeros((q, q), dtype=complex)
    shift[np.arange(1, q), np.arange(q - 1)] = 1.0
    shift[0, q - 1] = 1.0
    return clock, shift


def torus_frequency_basis(q: int, p: int = 1) -> dict:
    """Unitaries u_w, w in Z_q^2, with u_w u_{w'} = exp(i pi theta (w1 w2' - w2 w1')) u_{w+w'}.

    Convention note: the defining q x q pair has commutation constant
    e^{2 pi i p / q}, which is the *full interchange* phase of u_(1,0)
    and u_(0,1).  The antisymmetric deformation parameter entering the
    half-phase cocycle above is therefore theta = p/q (the interchange
    constant e^{2 pi i theta} double-counts the half phase e^{i pi theta}).
    """
    if math.gcd(p, q) != 1:
        raise ValueError(
            f"p={p} and q={q} must be coprime: otherwise the frequency basis "
            "degenerates and the characters of Z_q^2 cannot all appear with "
            "multiplicity one")
    clock, shift = clock_and_shift(q, p)
    nu = np.exp(1j * np.pi * p / q)
    basis = {}
    cpow = [np.linalg.matrix_power(clock, k) for k in range(q)]
    spow = [np.linalg.matrix_power(shift, k) for k in range(q)]
    for w1 in range(q):
        for w2 in range(q):
            basis[(w1, w2)] = nu ** (-w1 * w2) * cpow[w1] @ spow[w2]
    return basis


def fuzzy_torus(q: int, p: int = 1) -> Cqms:
    """Clock/shift fuzzy torus at level q with deformation step p.

    The exact subgroup Z_q x Z_q of the 2-torus acts by conjugation so
    that the frequency unitary u_w is scaled by the character <w, x>;
    the action is ergodic and every character has multiplicity one.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    freq = torus_frequency_basis(q, p)
    group = ga.torus_group(q, n=2)

    # implementers: conjugation by clock/shift monomials chosen so that
    # u_w picks up exactly exp(2 pi i (k1 w1 + k2 w2) / q)
    plain_clock, shift = clock_and_shift(q, 1)
    p_inv = pow(p, -1, q)
    cpow = [np.linalg.matrix_power(plain_clock, k) for k in range(q)]
    spow = [np.linalg.matrix_power(shift, k) for k in range(q)]
    implementers = np.empty((q * q, q, q), dtype=complex)
    for idx, (k1, k2) in enumerate(group.elements):
        implementers[idx] = cpow[k2] @ spow[(-p_inv * k1) % q]

    herm = []
    for w in sorted(freq):
        u = freq[w]
        herm.append((u + u.conj().T) / 2.0)
        herm.append((u - u.conj().T) / 2j)
    space = HermitianSpace(basis=np.array(herm))
    action = ga.UnitaryAction(group=group, implementers=implementers)
    return Cqms(space=space, action=action, name=f"torus(q={q},p={p})",
                basis_labels=dict(freq))


def torus_characters(q: int) -> list:
    return ga.torus_characters(q, n=2)


# ---------------------------------------------------------------------------
# fuzzy sphere


def spin_matrices(two_j: int):
    """Angular momentum matrices (Jx, Jy, Jz) for spin j = two_j / 2,
    in the eigenbasis of Jz ordered m = j, j-1, ..., -j."""
    j = two_j / 2.0
    d = two_j + 1
    m = j - np.arange(d)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        mm = m[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2j
    return jx, jy, jz


def su2_implementers(two_j: int, grid: ga.Su2Grid) -> np.ndarray:
    """Spin-j Euler rotations for every grid element; inverse pairs are
    exact daggers of their partners."""
    jx, jy, jz = spin_matrices(two_j)
    d = two_j + 1
    wy, vy = np.linalg.eigh(jy)
    mdiag = np.real(np.diag(jz))
    n = grid.group.size
    base = (n - 1) // 2
    euler = grid.euler[1:1 + base]
    a, b, g = euler[:, 0], euler[:, 1], euler[:, 2]
    mid = np.einsum("ab,xb,cb->xac", vy, np.exp(-1j * np.outer(b, wy)), vy.conj(),
                    optimize=True)
    us = np.exp(-1j * np.outer(a, mdiag))[:, :, None] * mid \
        * np.exp(-1j * np.outer(g, mdiag))[:, None, :]
    out = np.empty((n, d, d), dtype=complex)
    out[0] = np.eye(d)
    out[1:1 + base] = us
    out[1 + base:] = np.swapaxes(us.conj(), 1, 2)
    return out


def fuzzy_sphere(two_j: int, grid_dims=DEFAULT_SU2_GRID) -> Cqms:
    """Full matrix algebra of spin j = two_j/2 under sampled SU(2) conjugation.

    The length function is the geodesic angle on the unit-quaternion
    sphere (half the space-rotation angle), the conventional bi-invariant
    choice.  Every result downstream carries the grid descriptor.
    """
    if two_j < 1:
        raise ValueError("need two_j >= 1")
    grid = su2_grid(grid_dims)
    impl = su2_implementers(two_j, grid)
    action = ga.UnitaryAction(group=grid.group, implementers=impl)
    space = full_matrix_space(two_j + 1)
    return Cqms(space=space, action=action,
                name=f"sphere(two_j={two_j},grid={'x'.join(str(x) for x in grid_dims)})")


def sphere_characters(two_j: int, grid_dims=DEFAULT_SU2_GRID) -> list:
    """SU(2) characters on the shared grid for integer spins l = 0..two_j + 1."""
    grid = su2_grid(grid_dims)
    return ga.su2_characters(grid, [2 * l for l in range(0, two_j + 2)])


# ---------------------------------------------------------------------------
# commutative cycle


def commutative_cycle(m: int) -> Cqms:
    """Functions on m equally spaced circle points, as diagonal matrices
    under the cyclic translation action with the arc length."""
    if m < 3:
        raise ValueError("need m >= 3")
    group = ga.cyclic_group(m)
    shift = np.zeros((m, m), dtype=complex)
    shift[np.arange(1, m) % m, np.arange(m - 1)] = 1.0
    shift[0, m - 1] = 1.0
    implementers = np.array([np.linalg.matrix_power(shift, k) for k in range(m)])
    action = ga.UnitaryAction(group=group, implementers=implementers)
    return Cqms(space=diagonal_space(m), action=action, name=f"cycle(m={m})")


def cycle_characters(m: int) -> list:
    return ga.cyclic_characters(m)


def scalar_cqms(reference: Cqms) -> Cqms:
    """The one-dimensional space R*I inside the same ambient matrices,
    carrying the same (now trivial) action.  The degenerate fibre of the
    non-convergent family."""
    d = reference.dim
    space = HermitianSpace(basis=np.eye(d, dtype=complex)[None])
    return Cqms(space=space, action=reference.action, name=f"scalars(d={d})")


# ---------------------------------------------------------------------------
# Berezin symbols


@dataclass
class BerezinMaps:
    """Covariant symbol and its adjoint for one spin level.

    ``symbol`` sends a matrix to the function x -> tr(a alpha_x(P)) on
    the sampled group; ``cosymbol`` is its adjoint for the normalized
    trace pairing on matrices and the quadrature L^2 pairing on
    functions.  The adjoint is unital and positive up to quadrature
    defects.
    """

    grid: ga.Su2Grid
    coherent: np.ndarray           # (size, d, d): alpha_x(P)
    projector: np.ndarray

    def symbol(self, a: np.ndarray) -> np.ndarray:
        return np.einsum("ab,xba->x", np.asarray(a, dtype=complex), self.coherent,
                         optimize=True)

    def cosymbol(self, f: np.ndarray) -> np.ndarray:
        d = self.projector.shape[0]
        w = self.grid.group.weights
        return d * np.einsum("x,x,xab->ab", w, np.asarray(f, dtype=complex), self.coherent,
                             optimize=True)

    def equivariance_defect(self, implementers: np.ndarray, a: np.ndarray,
                            x_indices) -> float:
        """max over sampled x of |cosymbol(symbol(alpha_x a)) - alpha_x cosymbol(symbol a)|;
        the translated symbol is evaluated through the transformed matrix, so
        no off-grid function values are needed."""
        worst = 0.0
        s0 = self.cosymbol(self.symbol(a))
        for x in x_indices:
            u = implementers[x]
            ax = u @ a @ u.conj().T
            lhs = self.cosymbol(self.symbol(ax))
            rhs = u @ s0 @ u.conj().T
            worst = max(worst, nm.op_norm(lhs - rhs))
        return worst


def berezin_maps(two_j: int, grid_dims=DEFAULT_SU2_GRID) -> BerezinMaps:
    grid = su2_grid(grid_dims)
    impl = su2_implementers(two_j, grid)
    d = two_j + 1
    proj = np.zeros((d, d), dtype=complex)
    proj[0, 0] = 1.0          # highest weight m = j
    coherent = np.einsum("xab,bc,xdc->xad", impl, proj, impl.conj(), optimize=True)
    return BerezinMaps(grid=grid, coherent=coherent, projector=proj)


# ---------------------------------------------------------------------------
# descriptors (the scenario-file unit)


@dataclass(frozen=True)
class Family:
    """One bundled example family, as scenario files name it.  Builders and
    character tables take the descriptor's parameters as a dict."""

    ranges: dict                   # required integer parameter -> documented [lo, hi]
    optional: tuple                # further parameters the builder reads
    build: Callable
    characters: Callable


def _sphere_grid(p: dict) -> tuple:
    return grid_dims(p.get("grid", DEFAULT_SU2_GRID))


FAMILIES = {
    "torus": Family(ranges={"q": (2, 12)}, optional=("p",),
                    build=lambda p: fuzzy_torus(int(p["q"]), int(p.get("p", 1))),
                    characters=lambda p: torus_characters(int(p["q"]))),
    "sphere": Family(ranges={"two_j": (1, 8)}, optional=("grid",),
                     build=lambda p: fuzzy_sphere(int(p["two_j"]), grid_dims=_sphere_grid(p)),
                     characters=lambda p: sphere_characters(int(p["two_j"]),
                                                            grid_dims=_sphere_grid(p))),
    "cycle": Family(ranges={"m": (3, 64)}, optional=(),
                    build=lambda p: commutative_cycle(int(p["m"])),
                    characters=lambda p: cycle_characters(int(p["m"]))),
}


@dataclass(frozen=True)
class ExampleDescriptor:
    """Named, parameterized recipe for one bundled example."""

    family: str                    # a key of FAMILIES
    params: tuple                  # sorted (key, value) pairs

    @staticmethod
    def make(family: str, **params) -> "ExampleDescriptor":
        return ExampleDescriptor(family=family, params=tuple(sorted(params.items())))

    def as_dict(self) -> dict:
        return {"family": self.family, **dict(self.params)}

    def validate(self) -> None:
        """ValueError unless the family is known, it takes every parameter
        given, and each ranged parameter is an integer in its range."""
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise ValueError(f"unknown example family {self.family!r}")
        p = dict(self.params)
        extra = set(p) - set(fam.ranges) - set(fam.optional)
        if extra:
            raise ValueError(f"unknown fields {sorted(extra)}")
        for key, (lo, hi) in fam.ranges.items():
            try:
                value = int(p[key])
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{self.family} needs an integer {key!r}, "
                                 f"got {p.get(key)!r}") from None
            if not lo <= value <= hi:
                raise ValueError(f"{self.family} {key}={value} outside documented "
                                 f"range [{lo},{hi}]")

    def build(self) -> Cqms:
        self.validate()
        return FAMILIES[self.family].build(dict(self.params))

    def characters(self) -> list:
        """The family's character table on the sample this example builds."""
        return FAMILIES[self.family].characters(dict(self.params))
