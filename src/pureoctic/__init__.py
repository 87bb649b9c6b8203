"""Exact Galois-group machinery for pure octic polynomials X^8 + c over Q.

There is no top-level API: import the module that answers the question.
`binomial` decides between five outcomes from the square class of c alone;
`splitting` realizes the order-16 case explicitly and `lattice` reports its
subgroup/subfield lattice; `qforms` decides the quaternion and triquadratic
embedding criteria by Hilbert symbols and ternary quadratic forms; `oracle`
checks every verdict independently by a mod-p factorization census.  `cli`
is the `pureoctic` command.

The package imports nothing.  It holds the one constant that both `cli`,
which loads no arithmetic for `--help`, and `oracle.census` read:
`MAX_CENSUS_BOUND`.
"""

__version__ = "0.1.0"

# the largest census bound: the sieve allocates one byte per integer below it
MAX_CENSUS_BOUND = 10 ** 7
