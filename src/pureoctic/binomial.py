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
checks every verdict.  `lattice` checks the Pauli condition on k itself.

Each branch asks whether m*c/q, for a fixed m/q, is a square or a fourth
power, reading c only by its numerator and denominator.
"""

from collections import namedtuple

from . import arith

TAG_REDUCIBLE = "Reducible"
TAG_K8 = "K8"
TAG_D16 = "D16"
TAG_QD16 = "QD16"
TAG_PAULI = "Pauli"
TAG_B32 = "B32"


class GaloisTag(namedtuple("GaloisTag", "name splitting_degree")):
    """Classifier verdict for X^8 + c, with predicted splitting degree
    (None when reducible), which is also the order of the Galois group."""

    __slots__ = ()


def poly_display(c: "arith.RationalParts") -> str:
    """X^8 + c as printed: X^8 - 2 for c = -2."""
    num, den = c.numerator, c.denominator
    return f"X^8 {'-' if num < 0 else '+'} {arith.RationalParts(abs(num), den)}"


# the branches in the order they are tried: (tag, splitting degree, the
# factor m/q of the value m*c/q whose root is sought, root degree, branch
# text).  The first two are the irreducibility criteria.  The Pauli
# k = sqrt(c) satisfies the Pauli condition: k square would make c = d^4,
# k = 2*l^2 would make c = 4*l^4
_OCTIC_BRANCHES = (
    (TAG_REDUCIBLE, None, (-1, 1), 2, "-c = {square} is a square (criterion a)"),
    (TAG_REDUCIBLE, None, (1, 4), 4, "c = 4*lambda^4 with lambda = {root} (criterion b)"),
    (TAG_K8, 8, (1, 1), 4, "c = d^4 with d = {root}"),
    (TAG_D16, 16, (1, 2), 2, "c = 2*d^2 with d = {root}"),
    (TAG_QD16, 16, (-1, 2), 2, "c = -2*d^2 with d = {root}"),
    (TAG_PAULI, 16, (1, 1), 2,
     "c = k^2 with k = {root}, k neither a square nor twice a square"),
)


def octic_verdict(c: "arith.RationalParts") -> tuple[GaloisTag, str]:
    """Galois group of X^8 + c and the matched branch of the list, each
    root taken once."""
    num, den = c.numerator, c.denominator
    if num == 0:
        raise ValueError("c must be nonzero")
    for name, degree, (m, q), n, text in _OCTIC_BRANCHES:
        root = arith.nth_root(arith.RationalParts(m * num, q * den), n)
        if root is not None:
            return (GaloisTag(name, degree),
                    text.format(root=root, square=arith.squared_text(root)))
    return (GaloisTag(TAG_B32, 32),
            "c is not in any square class of the list (generic case)")


def classify_octic(c: "arith.RationalParts") -> GaloisTag:
    """Galois group of X^8 + c over Q, for any nonzero rational c."""
    return octic_verdict(c)[0]

