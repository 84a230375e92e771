"""Dense multivector arithmetic for real Clifford algebras Cl(p,q).

Elements are stored as one coefficient per basis blade, indexed by bitmask:
bit i set means basis vector e_{i+1} is present. The first p basis vectors
square to +1, the remaining q to -1. Dimension is capped at 12 (4096
coefficients), which keeps every product a small dense operation.

Multivectors are immutable values; every operation returns a new object,
so they are safe to share between threads. Only this module reads its
layout tables (wedge steps, grade and parity masks, the vector-product
gather); other modules call the wedge (wedge_vectors, _wedge_coeffs),
contraction_matrix and _rotor_chain, (c_1 + i_1 s_1)...(c_k + i_k s_k) L X.
Rows are validated by the public wedge_vectors and blade_from_spanning_vectors,
not _wedge_coeffs. Multivector._of_finite skips the constructor's finiteness scan;
it runs only right after a finite norm of those coefficients (Blade, _unit_wedge).
vector_product takes its matrix-vector step with np.dot, not @: the bytes are the
same and, at n <= 12, matmul's dispatch costs more than the product.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SignatureMismatchError

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
def euclidean_signature(n: int) -> Signature:
    """Cl(n,0), built once per n: a Signature is frozen, so every caller shares it."""
    return Signature(n)


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
    """Signs of the basis-blade products e_a e_b for broadcastable index arrays.

    One AND and one gather: the sign of e_a e_b is (-1)^popcount(H'[a] & b)
    with H' the swap-mask table of _swap_masks. Memory is O(2^n) per
    signature plus the 4096-entry parity table, never a 2^n x 2^n table.
    """
    return _parity_signs()[_swap_masks(sig)[ai] & bi]


@lru_cache(maxsize=None)
def _square_signs(sig: Signature) -> np.ndarray:
    """The sign of e_M e_M for every mask M, from _signs, built once per signature."""
    masks = np.arange(sig.size)
    s = _signs(masks, masks, sig)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _parity_masks(n: int) -> np.ndarray:
    """The masks below 2^n of even (row 0) and of odd (row 1) grade, ascending.

    Masks 2k and 2k + 1 differ in bit 0 alone, so each row holds exactly
    one of them: mask M sits at position M >> 1 of its row.
    """
    m = np.stack([np.flatnonzero(_grades(n) % 2 == p) for p in (0, 1)])
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _vector_table(sig: Signature) -> tuple[np.ndarray, np.ndarray]:
    """Signed-gather tables of the left product by a vector, one per result
    parity, each int64 of shape (n, 2^(n-1)).

    A vector maps the even masks onto the odd ones and back, so each
    output mask T of parity p (the c-th of _parity_masks(n)[p]) takes one
    term per i, from the mask S = T ^ 2^i of the other parity. Entry
    [i, c] is S's position among those masks, S >> 1, plus 2^(n-1) where
    e_i e_S has sign -1 (from _signs, so the metric is included): it
    indexes the other half's coefficients followed by their negatives.
    At n = 12, 2 x 24576 entries, about 393 KB per signature.
    """
    bits = (1 << np.arange(sig.n, dtype=np.int64))[:, None]
    half = sig.size >> 1
    tables = []
    for out in _parity_masks(sig.n):
        src = out ^ bits
        table = (src >> 1) + np.where(_signs(bits, src, sig) < 0.0, half, 0)
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def vector_product(sig: Signature, v: np.ndarray, half: np.ndarray, parity: int) -> np.ndarray:
    """The other-parity half of v X, for the vector coordinates v and the
    coefficients half of X on the masks _parity_masks(n)[parity] (X has
    no other part).

    One signed gather and one matrix-vector product: n * 2^(n-1) terms,
    as every output mask T receives one term e_i e_{T ^ 2^i} per i,
    against up to 4^n for the general kernel (Dorst, Fontijne & Mann,
    Geometric Algebra for Computer Science, ch. 19).
    """
    return np.dot(v, np.concatenate((half, -half))[_vector_table(sig)[parity ^ 1]])


def _parity_half(sig: Signature, x: np.ndarray, parity: int) -> np.ndarray:
    """The 2^(n-1) coefficients of x on the masks of the given parity: _rotor_chain's start,
    gathered before it is scaled, so a scaling touches only the half the chain reads."""
    return x[_parity_masks(sig.n)[parity]]


def _rotor_chain(sig, angles, pairs, flipped, half: np.ndarray, parity: int) -> np.ndarray:
    """(c_1 + i_1 s_1)...(c_k + i_k s_k) L X with i_k = x_k ^ y_k for the
    orthonormal pairs (x_k, y_k) and L = l_1 ... l_m for the orthonormal rows
    of flipped, built from the right end by left products with vectors:
    l_m X first, up to l_1, then each factor from the last plane's to the
    first's, acting as c X + s x_k (y_k X), as x_k ^ y_k = x_k y_k.

    X, a multivector of Cl(n,0), has the one parity given (its other
    coefficients are zero), and half holds its coefficients of that parity
    (_parity_half). Each vector flips the parity, so the chain runs on the
    2^(n-1) coefficients of the current parity (vector_product, n * 2^(n-1)
    terms a step), and the last half is scattered into the one full array
    returned."""
    masks = _parity_masks(sig.n)
    out = half
    for row in flipped[::-1]:
        out = vector_product(sig, row, out, parity)
        parity ^= 1
    for theta, (u, w) in reversed(list(zip(angles, pairs))):
        turned = vector_product(sig, u, vector_product(sig, w, out, parity), parity ^ 1)
        out = math.cos(theta) * out + math.sin(theta) * turned
    full = np.zeros(sig.size)
    full[masks[parity]] = out
    return full


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
    sign = _signs(sub, 1 << bits, euclidean_signature(n))
    src = np.searchsorted(_grade_masks(n, k), sub)
    for arr in (src, bits, sign):
        arr.setflags(write=False)
    return src, bits, sign


def wedge_vectors(sig: Signature, rows) -> Multivector:
    """rows[0] ^ rows[1] ^ ... ^ rows[k-1] for k vectors given by coordinates.

    Multivector.vector is its one-row case; for more rows it gives the
    bytes of the iterated Multivector.outer: each step adds the terms of
    every output mask in the kernel's row-major order onto +0.0, one table
    row at a time. Terms the kernel leaves out (a zero factor) are added as +-0.0,
    which changes no byte. A non-finite intermediate always reaches the
    result, so an overflow raises the constructor's ValueError, with no
    RuntimeWarning on the way. rows is converted once by _real_rows, as
    blades._span converts a span: what NumPy refuses (ragged rows, a
    generator, a set) raises its own error, entries that are not real
    numbers raise TypeError, and anything but a (k, n) array with k >= 1
    raises ValueError.
    """
    rows = _real_rows(rows)
    if rows.ndim != 2 or not len(rows) or rows.shape[1] != sig.n:
        raise ValueError(f"need k >= 1 rows of {sig.n} coordinates")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _wedge_coeffs(sig, rows)
    return Multivector(sig, coeffs, _copy=False)


# dtype kinds that convert to float silently (or with only a ComplexWarning) but are not
# real coordinates: booleans, str and bytes (numeric strings parse), complex numbers
_NOT_REAL = {"b": "booleans", "U": "strings", "S": "bytes", "c": "complex numbers"}


def _real_rows(rows) -> np.ndarray:
    """rows as one float array, converted once; TypeError when the array NumPy infers from
    them holds booleans, strings, bytes or complex numbers. Object arrays (a Fraction, an int
    beyond int64) go through the float conversion."""
    rows = np.asarray(rows)
    if rows.dtype.kind in _NOT_REAL:
        raise TypeError(f"coordinates must be real numbers, not {_NOT_REAL[rows.dtype.kind]}")
    return np.asarray(rows, dtype=float)


def _wedge_coeffs(sig: Signature, rows) -> np.ndarray:
    """The 2^n coefficients of wedge_vectors(sig, rows), unchecked: callers validate rows and finiteness.

    np.add.reduce over axis 0 of a (rows, columns) step adds row after row onto +0.0, the
    table's order, while there are two columns or more; a single column (the pseudoscalar
    step) it sums pairwise from 8 rows on, so that step keeps the loop."""
    acc, n = rows[0], sig.n
    for k in range(1, len(rows)):
        src, bits, sign = _wedge_table(n, k)
        terms = sign * (acc[src] * rows[k][bits])
        if terms.shape[1] > 1:
            acc = np.add.reduce(terms, axis=0, initial=0.0)
        else:
            acc = terms[0] + 0.0
            for term in terms[1:]:
                acc += term
    c = np.zeros(1 << n)
    c[_grade_masks(n, len(rows))] = acc
    return c


def contraction_matrix(mv: Multivector, k: int) -> np.ndarray:
    """C[i, S] = <e_i _| mv, e_S> up to one global sign, S over the ascending
    grade-(k-1) masks: mv's grade-k coefficients scattered through
    _wedge_table. For k = 2, C[j, i] = f_ij = -C[i, j] with f_ij the
    coefficient of e_i ^ e_j, i < j.
    """
    n = mv.sig.n
    src, bits, sign = _wedge_table(n, k - 1)
    c = np.zeros((n, _grade_masks(n, k - 1).size))
    c[bits, src] = sign * mv.coeffs[_grade_masks(n, k)]
    return c


def _norm(c: np.ndarray) -> float:
    """The 2-norm of c. Only where c . c leaves the normal range while c is
    finite and nonzero is c first divided by an exact power of two near its
    largest entry, so a norm that a float holds neither underflows to 0 nor
    overflows to inf on the way; ordinary inputs keep the plain sqrt(c . c). np.vdot gives
    np.dot's bytes, but an overflow to inf raises no warning, so only the rescaling, whose
    last step can overflow, runs under np.errstate."""
    squared = float(np.vdot(c, c))
    peak = 0.0 if sys.float_info.min <= squared < math.inf else float(np.max(np.abs(c)))
    if not 0.0 < peak < math.inf:
        return math.sqrt(squared)
    e = math.frexp(peak)[1]
    with np.errstate(over="ignore"):
        scaled = np.ldexp(c, -e)
        return float(np.ldexp(math.sqrt(np.dot(scaled, scaled)), e))


def mask_from_name(name: str, n: int) -> int:
    """Parse a basis-blade name like 'e12', 'e1_10', 'e_10' or '1' (scalar).

    Indices must ascend strictly: 'e21' would be -e12, a sign no mask holds.
    """
    name = name.strip()
    if name in ("1", "e", "e0", "scalar"):
        return 0
    if not name.startswith("e"):
        raise ValueError(f"bad blade name {name!r}")
    body = name[1:]
    if "_" in body:
        parts = body.split("_")
        if len(parts) == 2 and not parts[0]:   # 'e_10': a lone index above 9, which 'e10' cannot spell
            parts = parts[1:]
    else:
        parts = list(body)
    mask = last = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"bad blade name {name!r}")
        idx = int(part)
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} out of range 1..{n} in {name!r}")
        if idx <= last:
            raise ValueError(f"indices of blade name {name!r} must ascend strictly")
        last = idx
        mask |= 1 << (idx - 1)
    return mask


def name_from_mask(mask: int) -> str:
    """Canonical name of a basis blade: 'e12' below e10, 'e1_10' above, 'e_10' alone."""
    if mask == 0:
        return "1"
    idx = [i + 1 for i in range(MAX_DIMENSION) if mask >> i & 1]
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return ("e_" if len(idx) == 1 else "e") + "_".join(str(i) for i in idx)


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

    @classmethod
    def _of_finite(cls, sig: Signature, coeffs: np.ndarray) -> "Multivector":
        """coeffs, read-only and uncopied, unscanned: only right after a finite norm of exactly them."""
        coeffs.setflags(write=False)
        mv = object.__new__(cls)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "coeffs", coeffs)
        return mv

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
        return wedge_vectors(sig, [coords])

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

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def support(self) -> np.ndarray:
        return self.coeffs.nonzero()[0]

    def grades(self) -> list[int]:
        """Grades with any nonzero coefficient."""
        g = _grades(self.sig.n)
        return np.bincount(g[self.coeffs != 0.0]).nonzero()[0].tolist()

    def max_grade(self) -> int:
        grs = self.grades()
        return grs[-1] if grs else 0

    def coeff_norm(self) -> float:
        """Plain 2-norm of the coefficient vector (metric-independent), by _norm."""
        return _norm(self.coeffs)

    def grade_norms(self) -> dict[int, float]:
        """Map grade -> grade(k).coeff_norm(), without building the parts."""
        g = _grades(self.sig.n)
        norms = {}
        for k in self.grades():
            norms[k] = _norm(np.where(g == k, self.coeffs, 0.0))
        return norms

    # ---- linear structure ----------------------------------------------

    def _check_sig(self, other: "Multivector"):
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def _combine(self, other, op):
        """op(self, other) on the coefficients, a Python number read as a scalar;
        any other operand is left to Python, which refuses it."""
        if isinstance(other, (int, float)):
            other = Multivector.scalar(self.sig, other)
        elif not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        return Multivector(self.sig, op(self.coeffs, other.coeffs), _copy=False)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return self._combine(other, lambda c, d: d - c)

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
        """Scalar part of the geometric product, computed directly: e_a e_b
        is a scalar only for a = b, with the sign _signs gives e_a e_a."""
        self._check_sig(other)
        return float(np.dot(self.coeffs * _square_signs(self.sig), other.coeffs))

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
