"""The octic classifier: irreducibility of X^8 + c over Q and its Galois
group, decided by one list of branches.

For irreducible X^8 + c the Galois group is determined by the square class
of c alone:

    c = d^4          -> C4 x C2 (abelian, splitting degree 8)
    c = 2 d^2        -> dihedral of order 16
    c = -2 d^2       -> quasidihedral of order 16
    c = k^2 (else)   -> Pauli group of order 16
    otherwise        -> Hol(C8), order 32

The branches are mutually exclusive: 2d^2 = k^2 and d^4 = 2e^2 have no
rational solutions.  The mod-p Frobenius census in `oracle` independently
checks every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .arith import Rational

TAG_REDUCIBLE = "Reducible"
TAG_K8 = "K8"
TAG_D16 = "D16"
TAG_QD16 = "QD16"
TAG_PAULI = "Pauli"
TAG_B32 = "B32"


@dataclass(frozen=True)
class GaloisTag:
    """Classifier verdict for X^8 + c, with predicted splitting degree."""

    name: str
    splitting_degree: int | None

    @property
    def group_order(self) -> int | None:
        # |Gal(E/Q)| = [E:Q]
        return self.splitting_degree


def pauli_condition_violation(k: Rational) -> str | None:
    """The violated clause of the Pauli condition, or None when it holds:
    k > 0 is neither a rational square nor twice one, exactly the values for
    which X^8 + k^2 has the Pauli group as Galois group."""
    k = Fraction(k)
    if k <= 0:
        return "k must be positive"
    r = arith.nth_root(k, 2)
    if r is not None:
        return f"k = {k} is a rational square ({_squared(r)})"
    r = arith.nth_root(k / 2, 2)
    if r is not None:
        return f"k = {k} is twice a rational square (2*{_squared(r)})"
    return None


def _squared(r: Fraction) -> str:
    """r^2 for display, with a fraction in parentheses: 3^2, (3/2)^2."""
    return f"{r}^2" if r.denominator == 1 else f"({r})^2"


# the branches in the order they are tried: (tag, splitting degree, the
# value whose root is sought, root degree, branch text).  The first two are
# the irreducibility criteria.  The Pauli k = sqrt(c) satisfies the Pauli
# condition: k square would make c = d^4, k = 2*l^2 would make c = 4*l^4
_OCTIC_BRANCHES = (
    (TAG_REDUCIBLE, None, lambda c: -c, 2, "-c = {square} is a square (criterion a)"),
    (TAG_REDUCIBLE, None, lambda c: c / 4, 4,
     "c = 4*lambda^4 with lambda = {root} (criterion b)"),
    (TAG_K8, 8, lambda c: c, 4, "c = d^4 with d = {root}"),
    (TAG_D16, 16, lambda c: c / 2, 2, "c = 2*d^2 with d = {root}"),
    (TAG_QD16, 16, lambda c: -c / 2, 2, "c = -2*d^2 with d = {root}"),
    (TAG_PAULI, 16, lambda c: c, 2,
     "c = k^2 with k = {root}, k neither a square nor twice a square"),
)


def octic_verdict(c: Rational) -> tuple[GaloisTag, str]:
    """Galois group of X^8 + c and the matched branch of the list, each
    root taken once."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    for name, degree, value, n, text in _OCTIC_BRANCHES:
        root = arith.nth_root(value(c), n)
        if root is not None:
            return (GaloisTag(name, degree),
                    text.format(root=root, square=_squared(root)))
    return (GaloisTag(TAG_B32, 32),
            "c is not in any square class of the list (generic case)")


def classify_octic(c: Rational) -> GaloisTag:
    """Galois group of X^8 + c over Q, for any nonzero rational c."""
    return octic_verdict(c)[0]

