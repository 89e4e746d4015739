"""Exact arithmetic in GF(q) and GF(q^2) for q = p^k, by lookup table.

The ambient field of the geometry is GF(q^2); the unitary polarity needs the
involutory conjugation x -> x^q, whose fixed field is the subfield GF(q).

Elements are encoded as integers in [0, q^2): the coefficient vector of the
residue polynomial in the canonical power basis, read as a base-p number
(coefficient of degree j contributes c_j * p^j).  0 encodes the zero element
and 1 the one, and the encoding is a stable file-format identifier.

The modulus is the monic irreducible polynomial of degree d = 2k over GF(p)
whose non-leading coefficient vector has the smallest base-p encoding; it is
recorded in serialized cap files.  Candidates are tried in that order, each
by its own product table: a monic candidate of degree d is reducible exactly
when it has a factor of degree at most d/2, and then that factor times its
cofactor is zero modulo the candidate.  So the first candidate whose table has
no zero product in the rows of degree <= d/2 is irreducible, and its table is
``mul2``.  Every other table is read from ``mul2``: conjugation as q - 1
successive products, inverses where a row holds 1, the norm as x * x^q.
Addition is digitwise.  Callers do arithmetic by indexing the tables, e.g.
``mul2[a, b]``; an element a lies in GF(q) exactly when ``conj[a] == a``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# largest q built: on a 2-core host the surface takes 0.14 s and 78 MB peak RSS
# at q = 11, and 1.6 s and 376 MB at q = 16, the peak in the generator pass;
# at q = 32 the generator rows hold (q^3 + 1)(q + 1)(q^2 + 1) = 1.1G ids, and
# the int64 keys sorted to list the generators through each point alone need
# 9 GB
MAX_Q = 16


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FieldSpec:
    """Field parameters: q = p^k, ambient field GF(q^2) of order p^(2k).

    Checked when built: TypeError unless p and k are integers, ConfigurationError
    unless k >= 1, q <= MAX_Q and p is prime.
    """

    p: int
    k: int

    def __post_init__(self) -> None:
        for name in ("p", "k"):  # TypeError for a non-integer
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.k < 1:
            raise ConfigurationError(f"k={self.k} must be >= 1")
        if self.q > MAX_Q:
            raise ConfigurationError(f"q={self.q} exceeds the largest supported q ({MAX_Q})")
        if _prime_factors(self.p) != [self.p]:
            raise ConfigurationError(f"p={self.p} is not prime")

    @classmethod
    def for_q(cls, q: int) -> "FieldSpec":
        """The spec with p^k = q; raises ConfigurationError unless q is a supported prime power."""
        if q > MAX_Q:  # before the trial division, which would hang on a huge q
            raise ConfigurationError(f"q={q} exceeds the largest supported q ({MAX_Q})")
        primes = _prime_factors(q) if q >= 2 else []
        if len(primes) != 1:
            raise ConfigurationError(f"q={q} is not a prime power")
        p, k = primes[0], 1
        while p**k < q:
            k += 1
        return cls(p, k)

    @property
    def q(self) -> int:
        return self.p**self.k

    @property
    def order2(self) -> int:
        return self.p ** (2 * self.k)


@dataclass
class FieldTables:
    """Precomputed arithmetic for GF(q^2); immutable after build.

    ``add2``/``mul2`` are full (q^2, q^2) tables.  ``conj`` is x -> x^q,
    ``inv`` the multiplicative inverse (0 slot unused), ``norm`` is
    x -> x^(q+1), always a subfield value.  Every caller indexes the tables;
    ``inv_of`` raises for 0, whose ``inv`` slot silently reads 0.
    """

    spec: FieldSpec
    modulus: tuple[int, ...]
    add2: np.ndarray = field(repr=False)
    mul2: np.ndarray = field(repr=False)
    conj: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    norm: np.ndarray = field(repr=False)

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def order2(self) -> int:
        return self.spec.order2

    def inv_of(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv[a])


def _products(rows: np.ndarray, cols: np.ndarray, low: np.ndarray, p: int) -> np.ndarray:
    """Encodings of every product a * b modulo x^d + low(x), for digit vectors a, b.

    The schoolbook sum of a_i * b_j * x^(i+j), with each x^(i+j) reduced first.
    """
    d = len(low)
    # row t: the digits of x^t modulo x^d + low(x), in columns 0 .. d-1
    mono = np.eye(2 * d - 1, dtype=np.int64)
    for t in range(2 * d - 2, d - 1, -1):
        mono[:, t - d : t] -= mono[:, t, None] * low
    # times[a, j] = a * x^j, so a * b = sum_j b_j * times[a, j]
    times = np.tensordot(rows, mono[np.add.outer(np.arange(d), np.arange(d)), :d] % p, 1)
    return ((cols @ times) % p @ p ** np.arange(d)).astype(np.int32)


def build_field(spec: FieldSpec) -> FieldTables:
    """Build all tables for GF(q^2) = GF(p)[x] / (canonical modulus)."""
    p, d, n = spec.p, 2 * spec.k, spec.order2
    idx = np.arange(n)
    digits = (idx[:, None] // p ** np.arange(d)) % p

    # a reducible candidate has a factor g of degree <= d/2, and g times its
    # cofactor is a zero product in row g; candidate e has low digits digits[e]
    rows = digits[1 : p ** (d // 2 + 1)]
    low = next(digits[e] for e in range(n) if _products(rows, digits[1:], digits[e], p).all())

    mul2 = _products(digits, digits, low, p)
    add2 = ((digits[:, None, :] + digits[None, :, :]) % p @ p ** np.arange(d)).astype(np.int32)
    conj = idx.astype(np.int32)
    for _ in range(spec.q - 1):
        conj = mul2[conj, idx]

    return FieldTables(
        spec=spec,
        modulus=tuple(int(c) for c in low) + (1,),
        add2=add2,
        mul2=mul2,
        conj=conj,
        inv=np.argmax(mul2 == 1, axis=1).astype(np.int32),
        norm=mul2[idx, conj],
    )
