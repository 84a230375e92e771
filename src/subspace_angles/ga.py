"""Dense multivector arithmetic for real Clifford algebras Cl(p,q).

Elements are stored as one coefficient per basis blade, indexed by bitmask:
bit i set means basis vector e_{i+1} is present. The first p basis vectors
square to +1, the remaining q to -1. Dimension is capped at 12 (4096
coefficients), which keeps every product a small dense operation.

Multivectors are immutable values; every operation returns a new object,
so they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NegativeSquareError, SignatureMismatchError

MAX_DIMENSION = 12


@dataclass(frozen=True)
class Signature:
    """Metric signature of Cl(p,q): p basis squares +1, q squares -1."""

    p: int
    q: int = 0

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be nonnegative")
        n = self.p + self.q
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"dimension p+q must be in 1..{MAX_DIMENSION}, got {n}")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def negative_mask(self) -> int:
        """Bitmask of the basis vectors that square to -1."""
        return ((1 << self.q) - 1) << self.p

    @property
    def is_euclidean(self) -> bool:
        return self.q == 0


@lru_cache(maxsize=None)
def _grades(n: int) -> np.ndarray:
    """popcount of every mask below 2^n."""
    masks = np.arange(1 << n, dtype=np.int64)
    g = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        g += (masks >> i) & 1
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _reverse_signs(n: int) -> np.ndarray:
    """(-1)^(k(k-1)/2) per mask, k the mask grade."""
    g = _grades(n)
    s = np.where((g * (g - 1) // 2) % 2 == 1, -1.0, 1.0)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _metric_signs(sig: Signature) -> np.ndarray:
    """(-1)^(number of negative-square vectors in the mask).

    Equals the scalar of e_M reverse(e_M), so norm_squared is a plain
    signed sum of squared coefficients.
    """
    masks = np.arange(sig.size, dtype=np.int64)
    s = _parity_signs()[masks & sig.negative_mask]
    s.setflags(write=False)
    return s


def basis_blade_product(mask_a: int, mask_b: int, sig: Signature) -> tuple[int, int]:
    """Multiply two basis blades; return (result mask, sign).

    The sign counts the transpositions needed to merge the two ascending
    index lists, times the metric factor of each annihilated shared
    vector. With p+q = n there are no null vectors, so the sign is
    always +-1.
    """
    if not 0 <= mask_a < sig.size or not 0 <= mask_b < sig.size:
        raise ValueError("mask out of range for signature")
    swaps = 0
    a = mask_a >> 1
    while a:
        swaps += (a & mask_b).bit_count()
        a >>= 1
    if (mask_a & mask_b & sig.negative_mask).bit_count() & 1:
        swaps += 1
    return mask_a ^ mask_b, (-1 if swaps & 1 else 1)


@lru_cache(maxsize=None)
def _parity_signs() -> np.ndarray:
    """(-1)^popcount(m) for every 12-bit mask m (4096 floats, 32 KB)."""
    s = np.where(_grades(MAX_DIMENSION) % 2 == 1, -1.0, 1.0)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _swap_masks(sig: Signature) -> np.ndarray:
    """Per-mask swap mask H'[a]: popcount(H'[a] & b) has the parity of the
    sign of e_a e_b (Dorst, Fontijne & Mann, Geometric Algebra for Computer
    Science, ch. 19, the bitmap product sign).

    Reordering e_a e_b takes sum over j in b of popcount(a >> (j+1))
    swaps, so bit j of H[a] is set when an odd number of a's vectors lie
    above j; each shared negative-square vector flips the sign once more,
    hence H'[a] = H[a] ^ (a & negative_mask). One int64 per mask: 2^n
    entries, at most 32 KB per signature.
    """
    masks = np.arange(sig.size, dtype=np.int64)
    h = masks >> 1
    # suffix XOR: bit j ends up as the parity of bits j+1..j+16 of the mask
    for shift in (1, 2, 4, 8):
        h ^= h >> shift
    h ^= masks & sig.negative_mask
    h.setflags(write=False)
    return h


def _signs(ai: np.ndarray, bi: np.ndarray, sig: Signature) -> np.ndarray:
    """Vectorized basis_blade_product signs for broadcastable index arrays.

    One AND and one gather: the sign of e_a e_b is (-1)^popcount(H'[a] & b)
    with H' the swap-mask table of _swap_masks. Memory is O(2^n) per
    signature plus the 4096-entry parity table, never a 2^n x 2^n table.
    """
    return _parity_signs()[_swap_masks(sig)[ai] & bi]


@lru_cache(maxsize=None)
def _grade_masks(n: int, k: int) -> np.ndarray:
    """The masks of grade k below 2^n, ascending."""
    m = np.flatnonzero(_grades(n) == k)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _wedge_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step table of the wedge of a grade-k coefficient array with a vector.

    Column c belongs to the c-th grade-(k+1) mask M in ascending order;
    row r holds M's r-th grade-k sub-mask in ascending order (so the
    dropped bit descends), as its position among the grade-k masks, with
    the index of the dropped bit and the sign of e_sub e_bit. That is the
    order in which the kernel's row-major scatter adds the terms of M.
    The sign never meets the metric, so one table per n serves every
    signature.
    """
    out = _grade_masks(n, k + 1)
    bits = np.nonzero((out[:, None] >> np.arange(n)) & 1)[1].reshape(out.size, k + 1)
    bits = np.ascontiguousarray(bits[:, ::-1].T)
    sub = out ^ (1 << bits)
    sign = _signs(sub, 1 << bits, Signature(n))
    src = np.searchsorted(_grade_masks(n, k), sub)
    for arr in (src, bits, sign):
        arr.setflags(write=False)
    return src, bits, sign


def wedge_vectors(sig: Signature, rows) -> Multivector:
    """rows[0] ^ rows[1] ^ ... ^ rows[k-1] for k vectors given by coordinates.

    Gives the bytes of the iterated Multivector.outer: each step adds the
    terms of every output mask in the kernel's row-major order onto +0.0,
    one table row at a time. Terms the kernel leaves out (a zero factor)
    are added as +-0.0, which changes no byte. A non-finite intermediate
    always reaches the result, so overflow still raises from the
    constructor.
    """
    rows = [np.asarray(row, dtype=float) for row in rows]
    if not rows or any(row.shape != (sig.n,) for row in rows):
        raise ValueError(f"need k >= 1 rows of {sig.n} coordinates")
    if len(rows) == 1:
        return Multivector.vector(sig, rows[0])
    acc = rows[0]
    for k in range(1, len(rows)):
        src, bits, sign = _wedge_table(sig.n, k)
        terms = sign * (acc[src] * rows[k][bits])
        acc = terms[0] + 0.0
        for term in terms[1:]:
            acc += term
    c = np.zeros(sig.size)
    c[_grade_masks(sig.n, len(rows))] = acc
    return Multivector(sig, c, _copy=False)


def mask_from_name(name: str, n: int) -> int:
    """Parse a basis-blade name like 'e12', 'e1_10' or '1' (scalar)."""
    name = name.strip()
    if name in ("1", "e", "e0", "scalar"):
        return 0
    if not name.startswith("e"):
        raise ValueError(f"bad blade name {name!r}")
    body = name[1:]
    if "_" in body:
        parts = body.split("_")
    else:
        parts = list(body)
    mask = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"bad blade name {name!r}")
        idx = int(part)
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} out of range 1..{n} in {name!r}")
        bit = 1 << (idx - 1)
        if mask & bit:
            raise ValueError(f"repeated index in blade name {name!r}")
        mask |= bit
    return mask


def name_from_mask(mask: int) -> str:
    """Canonical name of a basis blade: 'e12' below e10, 'e1_10' above."""
    if mask == 0:
        return "1"
    idx = [i + 1 for i in range(MAX_DIMENSION) if mask >> i & 1]
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e" + "_".join(str(i) for i in idx)


class Multivector:
    """Immutable dense element of Cl(p,q)."""

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs, *, _copy: bool = True):
        arr = np.array(coeffs, dtype=float, copy=_copy)
        if arr.shape != (sig.size,):
            raise ValueError(f"need {sig.size} coefficients, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, np.zeros(sig.size), _copy=False)

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        c = np.zeros(sig.size)
        c[0] = value
        return cls(sig, c, _copy=False)

    @classmethod
    def vector(cls, sig: Signature, coords) -> "Multivector":
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (sig.n,):
            raise ValueError(f"need {sig.n} coordinates, got {coords.shape}")
        c = np.zeros(sig.size)
        c[_grade_masks(sig.n, 1)] = coords
        return cls(sig, c, _copy=False)

    @classmethod
    def basis_blade(cls, sig: Signature, blade, coeff: float = 1.0) -> "Multivector":
        """Single basis blade from a bitmask or a name like 'e13'."""
        mask = mask_from_name(blade, sig.n) if isinstance(blade, str) else int(blade)
        if not 0 <= mask < sig.size:
            raise ValueError("mask out of range")
        c = np.zeros(sig.size)
        c[mask] = coeff
        return cls(sig, c, _copy=False)

    # ---- inspection ---------------------------------------------------

    def vector_coords(self) -> np.ndarray:
        """Grade-1 coefficients as an n-array."""
        return self.coeffs[_grade_masks(self.sig.n, 1)]

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def support(self) -> np.ndarray:
        return self.coeffs.nonzero()[0]

    def grades(self, tol: float = 0.0) -> list[int]:
        """Grades with any coefficient of magnitude above tol."""
        g = _grades(self.sig.n)
        present = np.abs(self.coeffs) > tol
        return np.bincount(g[present]).nonzero()[0].tolist()

    def max_grade(self) -> int:
        grs = self.grades()
        return grs[-1] if grs else 0

    def coeff_norm(self) -> float:
        """Plain 2-norm of the coefficient vector (metric-independent)."""
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))

    def grade_norms(self) -> dict[int, float]:
        """Map grade -> grade(k).coeff_norm(), without building the parts."""
        g = _grades(self.sig.n)
        norms = {}
        for k in self.grades():
            part = np.where(g == k, self.coeffs, 0.0)
            norms[k] = float(np.sqrt(np.dot(part, part)))
        return norms

    # ---- linear structure ----------------------------------------------

    def _check_sig(self, other: "Multivector"):
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Multivector.scalar(self.sig, other)
        self._check_sig(other)
        return Multivector(self.sig, self.coeffs + other.coeffs, _copy=False)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Multivector.scalar(self.sig, other)
        self._check_sig(other)
        return Multivector(self.sig, self.coeffs - other.coeffs, _copy=False)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.sig, -self.coeffs, _copy=False)

    def __truediv__(self, scalar):
        return Multivector(self.sig, self.coeffs / float(scalar), _copy=False)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and bool(np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    # ---- products -------------------------------------------------------

    def _product(self, other: "Multivector", keep=None) -> "Multivector":
        """Shared kernel: accumulate sign * a_i * b_j into mask i^j.

        keep(ai, bi) -> bool matrix selects which basis pairs contribute
        (None keeps all, giving the geometric product); only the selected
        pairs are computed. np.bincount adds the
        terms in row-major (i, j) order, one pass, so the rounding is that
        of a plain loop over i then j, and a bin never holds -0.0, so
        leaving a term out gives the same bytes as adding it as +-0.0.
        """
        self._check_sig(other)
        a = self.coeffs.nonzero()[0][:, None]
        b = other.coeffs.nonzero()[0][None, :]
        if keep is not None:
            rows, cols = np.nonzero(keep(a, b))
            a, b = a[rows, 0], b[0, cols]
        vals = _signs(a, b, self.sig) * (self.coeffs[a] * other.coeffs[b])
        if not vals.size:
            # bincount of nothing is int64, which the constructor refuses
            return Multivector.zero(self.sig)
        out = np.bincount((a ^ b).ravel(), weights=vals.ravel(), minlength=self.sig.size)
        return Multivector(self.sig, out, _copy=False)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.sig, self.coeffs * other, _copy=False)
        if isinstance(other, Multivector):
            return self._product(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.sig, other * self.coeffs, _copy=False)
        return NotImplemented

    def outer(self, other: "Multivector") -> "Multivector":
        """Outer (wedge) product: grade-raising part of the geometric product."""
        return self._product(other, keep=lambda a, b: (a & b) == 0)

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return self.outer(other)
        return NotImplemented

    def left_contraction(self, other: "Multivector") -> "Multivector":
        """a lc b: per-grade selection <a_r b_s>_{s-r}, zero for r > s."""
        return self._product(other, keep=lambda a, b: (a & b) == a)

    def scalar_product(self, other: "Multivector") -> float:
        """Scalar part of the geometric product, computed directly."""
        self._check_sig(other)
        # e_M e_M = (-1)^(k(k-1)/2) * metric(M); fold both sign tables.
        signs = _reverse_signs(self.sig.n) * _metric_signs(self.sig)
        return float(np.dot(self.coeffs * signs, other.coeffs))

    # ---- involutions and grades ----------------------------------------

    def reverse(self) -> "Multivector":
        return Multivector(self.sig, self.coeffs * _reverse_signs(self.sig.n), _copy=False)

    def __invert__(self):
        return self.reverse()

    def grade(self, k: int) -> "Multivector":
        """Projection onto grade k."""
        g = _grades(self.sig.n)
        return Multivector(self.sig, np.where(g == k, self.coeffs, 0.0), _copy=False)

    def graded_parts(self) -> dict[int, "Multivector"]:
        """Map grade -> pure-grade part; the parts sum back exactly."""
        return {k: self.grade(k) for k in self.grades()}

    # ---- norms ----------------------------------------------------------

    def norm_squared(self) -> float:
        """Signed squared norm <a reverse(a)>_0."""
        return float(np.dot(self.coeffs * self.coeffs, _metric_signs(self.sig)))

    def norm(self) -> float:
        """sqrt(<a reverse(a)>_0); raises on a negative square."""
        ns = self.norm_squared()
        if ns < 0.0:
            scale = float(np.dot(self.coeffs, self.coeffs))
            if ns < -1e-14 * max(scale, 1.0):
                raise NegativeSquareError(f"squared norm is negative: {ns}")
            ns = 0.0
        return math.sqrt(ns)

    # ---- misc -----------------------------------------------------------

    def approx_eq(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check_sig(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self):
        idx = self.coeffs.nonzero()[0]
        if idx.size == 0:
            return "0"
        terms = [f"{self.coeffs[m]:g}*{name_from_mask(int(m))}" for m in idx]
        return " + ".join(terms).replace("+ -", "- ")


def basis_vectors(sig: Signature) -> list[Multivector]:
    """The n grade-1 basis elements e_1 .. e_n."""
    return [Multivector.basis_blade(sig, 1 << i) for i in range(sig.n)]
