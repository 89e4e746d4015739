"""Exact arithmetic in GF(q) and GF(q^2) for q = p^k, by lookup table.

The ambient field of the geometry is GF(q^2); the unitary polarity needs the
involutory conjugation x -> x^q, whose fixed field is the subfield GF(q).

Elements are encoded as integers in [0, q^2): the coefficient vector of the
residue polynomial in the canonical power basis, read as a base-p number
(coefficient of degree j contributes c_j * p^j).  0 encodes the zero element
and 1 the one, and the encoding is a stable file-format identifier.

The modulus is the monic irreducible polynomial of degree 2k over GF(p)
whose non-leading coefficient vector has the smallest base-p encoding; it is
recorded in serialized cap files.  Multiplication goes through exp/log tables
for a fixed primitive element (the element of smallest encoding that
generates the multiplicative group), addition through a digitwise table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# largest q built: the surface at q = 16 takes about 14 s and 1.25 GB on a
# 2-core host, and at q = 32 the q^6 coordinate rows of PG(3, q^2) alone would
# need over 17 GB
MAX_Q = 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


# --- polynomial helpers over GF(p) ---------------------------------------
# Polynomials are little-endian coefficient lists without trailing zeros.


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - len(m)
        if coef:
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - coef * mj) % p
        a.pop()
        _ptrim(a)
        if not a:
            break
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    d = len(f) - 1
    for deg in range(1, d // 2 + 1):
        for enc in range(p**deg):
            g = [(enc // p**j) % p for j in range(deg)] + [1]
            if not _pmod(f, g, p):
                return False
    return True


def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    for enc in range(p**degree):
        f = [(enc // p**j) % p for j in range(degree)] + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise ConfigurationError(f"no irreducible of degree {degree} over GF({p})")


@dataclass(frozen=True)
class FieldSpec:
    """Field parameters: q = p^k, ambient field GF(q^2) of order p^(2k)."""

    p: int
    k: int

    @classmethod
    def for_q(cls, q: int) -> "FieldSpec":
        """The spec with p^k = q; raises ConfigurationError unless q is a prime power."""
        primes = _prime_factors(q)
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

    def validate(self) -> None:
        if not _is_prime(self.p):
            raise ConfigurationError(f"p={self.p} is not prime")
        if self.k < 1:
            raise ConfigurationError(f"k={self.k} must be >= 1")
        if self.q > MAX_Q:
            raise ConfigurationError(f"q={self.q} exceeds the largest supported q ({MAX_Q})")


@dataclass
class FieldTables:
    """Precomputed arithmetic for GF(q^2); immutable after build.

    ``add2``/``mul2`` are full (q^2, q^2) tables; ``exp``/``log`` realize the
    cyclic group for the recorded primitive element.  ``conj`` is x -> x^q,
    ``inv`` the multiplicative inverse (0 slot unused), ``norm`` is
    x -> x^(q+1), always a subfield value.
    """

    spec: FieldSpec
    modulus: tuple[int, ...]
    generator: int
    exp: np.ndarray = field(repr=False)
    log: np.ndarray = field(repr=False)
    add2: np.ndarray = field(repr=False)
    mul2: np.ndarray = field(repr=False)
    conj: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    norm: np.ndarray = field(repr=False)

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def order2(self) -> int:
        return self.spec.order2

    # scalar operations (table lookups); vectorized callers index the arrays
    def add(self, a: int, b: int) -> int:
        return int(self.add2[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul2[a, b])

    def inv_of(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv[a])

    def conj_of(self, a: int) -> int:
        return int(self.conj[a])

    def norm_of(self, a: int) -> int:
        return int(self.norm[a])

    def in_subfield(self, a: int) -> bool:
        return int(self.conj[a]) == a


def _encode(coeffs: list[int], p: int) -> int:
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


def _decode(e: int, p: int, d: int) -> list[int]:
    return _ptrim([(e // p**j) % p for j in range(d)])


def build_field(spec: FieldSpec) -> FieldTables:
    """Build all tables for GF(q^2) = GF(p)[x] / (canonical modulus)."""
    spec.validate()
    p, d, n = spec.p, 2 * spec.k, spec.order2
    modulus = list(_smallest_irreducible(p, d))

    def fmul(a: int, b: int) -> int:
        return _encode(_pmod(_pmul(_decode(a, p, d), _decode(b, p, d), p), modulus, p), p)

    def fpow(a: int, e: int) -> int:
        r, base = 1, a
        while e:
            if e & 1:
                r = fmul(r, base)
            base = fmul(base, base)
            e >>= 1
        return r

    # primitive element: smallest encoding whose order is q^2 - 1
    order = n - 1
    gen = 0
    for cand in range(2, n):
        if all(fpow(cand, order // f) != 1 for f in _prime_factors(order)):
            gen = cand
            break
    if gen == 0:
        raise ConfigurationError("no primitive element found")

    exp = np.empty(order, dtype=np.int32)
    log = np.full(n, -1, dtype=np.int32)
    x = 1
    for i in range(order):
        exp[i] = x
        log[x] = i
        x = fmul(x, gen)
    if x != 1 or np.count_nonzero(log >= 0) != order:
        raise ConfigurationError("primitive element does not generate the group")

    # digitwise structure, vectorized table fills
    idx = np.arange(n, dtype=np.int64)
    digits = np.stack([(idx // p**j) % p for j in range(d)], axis=1).astype(np.int8)
    pw = p ** np.arange(d, dtype=np.int64)

    add2 = (
        ((digits[:, None, :].astype(np.int64) + digits[None, :, :]) % p) @ pw
    ).astype(np.int32)

    mul2 = np.zeros((n, n), dtype=np.int32)
    nz = idx[1:]
    mul2[np.ix_(nz, nz)] = exp[(log[nz][:, None] + log[nz][None, :]) % order]

    conj = np.zeros(n, dtype=np.int32)
    conj[exp] = exp[(np.arange(order, dtype=np.int64) * spec.q) % order]
    conj[0] = 0

    inv = np.zeros(n, dtype=np.int32)
    inv[exp] = exp[(-np.arange(order, dtype=np.int64)) % order]

    nrm = mul2[idx, conj[idx]].astype(np.int32)

    return FieldTables(
        spec=spec,
        modulus=tuple(modulus),
        generator=gen,
        exp=exp,
        log=log,
        add2=add2,
        mul2=mul2,
        conj=conj,
        inv=inv,
        norm=nrm,
    )
