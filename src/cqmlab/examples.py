"""Bundled matrix-algebra models of classical spaces.

Three families at finite scale:

* ``fuzzy_torus(q, p)`` - the q x q clock/shift algebra carrying the
  ergodic Z_q^2 translation action with the flat word length;
* ``fuzzy_sphere(two_j)`` - the full matrix algebra of a spin-j
  representation under SU(2) conjugation sampled on an Euler grid;
* ``commutative_cycle(m)`` - functions on m circle points as diagonal
  matrices under Z_m^1, the 1-torus case, acting by the shift of
  ``clock_and_shift(m)``: the classical recovery case.

The torus and the cycle share one group family and its characters,
``group_action.torus_group(q, n)`` and ``torus_characters(q, n)``.

``FAMILIES`` is the table scenario files read: per family its field
table, its builder and its character table.  ``check_fields`` is the one
checker of field tables, these and those of ``cli``.

``berezin_maps`` supplies the covariant symbol transform and its
adjoint of a built sphere, read from its own implementers and group
weights; they are the raw material for the sphere-to-sphere comparison
maps used by the distance estimators.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import group_action as ga
from . import numerics as nm
from .cqms import Cqms, HermitianSpace, diagonal_space, full_matrix_space

DEFAULT_SU2_GRID = (14, 12, 14)
MAX_SU2_NODES = 4096

_grid_cache: dict = {}


def grid_dims(grid=DEFAULT_SU2_GRID) -> tuple:
    """SU(2) grid dimensions from "12x12x12" or a sequence of three integers
    with at most ``MAX_SU2_NODES`` nodes (sizes scale with the nodes)."""
    parts = (grid.split("x") if isinstance(grid, str)
             else grid if isinstance(grid, (list, tuple)) else ())
    dims = tuple(int(x) if isinstance(x, str) and x.isdecimal() else x for x in parts)
    if (len(dims) != 3 or not all(_is_int(x) and x >= 1 for x in dims)
            or math.prod(dims) > MAX_SU2_NODES):
        raise ValueError(f"must be three positive integers like 12x12x12 with at most "
                         f"{MAX_SU2_NODES} nodes, got {grid!r}")
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
    group = ga.torus_group(q, 2)

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


def sphere_characters(two_j: int, grid_dims) -> list:
    """SU(2) characters on the shared grid for integer spins l = 0..two_j + 1."""
    grid = su2_grid(grid_dims)
    return ga.su2_characters(grid, [2 * l for l in range(0, two_j + 2)])


# ---------------------------------------------------------------------------
# commutative cycle


def commutative_cycle(m: int) -> Cqms:
    """Functions on m equally spaced circle points, as diagonal matrices
    under the translation action of Z_m^1 with the arc length."""
    if m < 3:
        raise ValueError("need m >= 3")
    group = ga.torus_group(m, 1)
    _, shift = clock_and_shift(m)
    implementers = np.array([np.linalg.matrix_power(shift, k) for k in range(m)])
    action = ga.UnitaryAction(group=group, implementers=implementers)
    return Cqms(space=diagonal_space(m), action=action, name=f"cycle(m={m})")


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
    functions, with the group's quadrature ``weights``.  The adjoint is
    unital and positive up to quadrature defects.
    """

    coherent: np.ndarray           # (size, d, d): alpha_x(P)
    weights: np.ndarray            # (size,) Haar quadrature weights

    def symbol(self, a: np.ndarray) -> np.ndarray:
        return np.einsum("ab,xba->x", np.asarray(a, dtype=complex), self.coherent,
                         optimize=True)

    def cosymbol(self, f: np.ndarray) -> np.ndarray:
        d = self.coherent.shape[-1]
        return d * np.einsum("x,x,xab->ab", self.weights, np.asarray(f, dtype=complex),
                             self.coherent, optimize=True)

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


def berezin_maps(sphere: Cqms) -> BerezinMaps:
    """The Berezin maps of a built space, read from its action: P is the
    projector onto the first basis vector (the highest weight m = j of a
    sphere), moved by the space's own implementers and integrated with its
    group's weights."""
    impl = sphere.action.implementers
    proj = np.zeros((sphere.dim, sphere.dim), dtype=complex)
    proj[0, 0] = 1.0
    coherent = np.einsum("xab,bc,xdc->xad", impl, proj, impl.conj(), optimize=True)
    return BerezinMaps(coherent=coherent, weights=sphere.action.group.weights)


# ---------------------------------------------------------------------------
# field tables (the scenario-file unit)


def field_type(what: str, test: Callable, convert: Callable = lambda v: v) -> Callable:
    """A field type: a function that returns ``convert(value)`` for a value
    that passes ``test``, and otherwise raises ValueError: it must be ``what``."""
    def check(value):
        if not test(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return convert(value)
    return check


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


boolean = field_type("true or false", lambda v: isinstance(v, bool))
integer = field_type("an integer", _is_int)
integers = field_type("a non-empty list of integers",
                      lambda v: isinstance(v, list) and v != [] and all(map(_is_int, v)))
number = field_type("a positive number", lambda v: (_is_int(v) or isinstance(v, float))
                    and 0 < v < math.inf, float)
text = field_type("a string", lambda v: isinstance(v, str))


def one_of(*choices) -> Callable:
    """The field type of a string among ``choices``."""
    return field_type(f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices)


def check_fields(table: dict, spec: dict) -> dict:
    """``spec`` checked against a field table of ``name: (type, default,
    range)`` rows, with every default filled in.  A type converts a value or
    raises ValueError (see ``field_type``); an integer, or each of a list,
    lies in the range ``(lo, hi)`` (hi None: no upper bound); a default of
    ``...`` marks a field that must be given."""
    unknown = sorted(set(spec) - set(table))
    if unknown:
        raise ValueError(f"unknown fields {unknown}")
    out = {}
    for key, (kind, default, bounds) in table.items():
        if key not in spec:
            if default is ...:
                raise ValueError(f"missing {key!r}")
            out[key] = default
            continue
        try:
            out[key] = kind(spec[key])
        except ValueError as exc:
            raise ValueError(f"{key!r} {exc}") from None
        if bounds is not None:
            lo, hi = bounds
            values = out[key] if isinstance(out[key], list) else [out[key]]
            if any(v < lo or (hi is not None and v > hi) for v in values):
                span = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
                raise ValueError(f"{key!r} must be {span}, got {spec[key]!r}")
    return out


def lookup(table: dict, key: str, value):
    """The entry of ``table`` that ``value`` (given for ``key``) names."""
    if isinstance(value, str) and value in table:
        return table[value]
    raise ValueError(f"unknown {key} {value!r}")


@dataclass(frozen=True)
class Family:
    """One bundled example family, as scenario files name it.  Builders and
    character tables take the checked fields of ``fields`` as a dict."""

    fields: dict                   # field table of its parameters
    build: Callable
    characters: Callable


FAMILIES = {
    "torus": Family(fields={"q": (integer, ..., (2, 12)), "p": (integer, 1, None)},
                    build=lambda p: fuzzy_torus(p["q"], p["p"]),
                    characters=lambda p: ga.torus_characters(p["q"], 2)),
    "sphere": Family(fields={"two_j": (integer, ..., (1, 8)),
                             "grid": (grid_dims, DEFAULT_SU2_GRID, None)},
                     build=lambda p: fuzzy_sphere(p["two_j"], grid_dims=p["grid"]),
                     characters=lambda p: sphere_characters(p["two_j"], grid_dims=p["grid"])),
    "cycle": Family(fields={"m": (integer, ..., (3, 64))},
                    build=lambda p: commutative_cycle(p["m"]),
                    characters=lambda p: ga.torus_characters(p["m"], 1)),
}


@dataclass(frozen=True)
class ExampleDescriptor:
    """Named, parameterized recipe for one bundled example."""

    family: str                    # a key of FAMILIES
    params: tuple                  # sorted (key, value) pairs, as given

    @staticmethod
    def make(family: str, **params) -> "ExampleDescriptor":
        return ExampleDescriptor(family=family, params=tuple(sorted(params.items())))

    def as_dict(self) -> dict:
        return {"family": self.family, **dict(self.params)}

    def checked(self) -> dict:
        """The parameters checked against the family's field table, with its
        defaults filled in; ValueError on an unknown family or a bad field."""
        return check_fields(lookup(FAMILIES, "example family", self.family).fields,
                            dict(self.params))

    def build(self) -> Cqms:
        return FAMILIES[self.family].build(self.checked())

    def characters(self) -> list:
        """The family's character table on the sample this example builds."""
        return FAMILIES[self.family].characters(self.checked())
