import numpy as np

from subspace_angles.blades import Blade, blade_from_spanning_vectors
from subspace_angles.errors import DegenerateSpanError
from subspace_angles.ga import Multivector


def random_multivector(rng, sig, scale=1.0):
    return Multivector(sig, rng.uniform(-scale, scale, sig.size))


def random_blade(rng, sig, grade) -> Blade:
    """Blade from a random spanning set; retries degenerate draws."""
    for _ in range(50):
        rows = rng.uniform(-1.0, 1.0, (grade, sig.n))
        try:
            return blade_from_spanning_vectors(rows, sig)
        except DegenerateSpanError:
            continue
    raise RuntimeError("could not draw an independent spanning set")


def random_frame(rng, n) -> np.ndarray:
    """A random n x n orthogonal matrix (rows orthonormal): a QR whose columns are signed by diag(R)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_rotor(rng, sig):
    """Product of two random unit vectors: a rotor for conjugation tests."""
    u = rng.uniform(-1.0, 1.0, sig.n)
    v = rng.uniform(-1.0, 1.0, sig.n)
    u = u / np.sqrt(u @ u)
    v = v / np.sqrt(v @ v)
    return Multivector.vector(sig, u) * Multivector.vector(sig, v)
