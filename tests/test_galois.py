import numpy as np
import pytest

from hermcap import FieldSpec, build_field
from hermcap.errors import ConfigurationError

SUPPORTED = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


@pytest.fixture(scope="module", params=SUPPORTED, ids=lambda pk: f"p{pk[0]}k{pk[1]}")
def tables(request):
    return build_field(FieldSpec(*request.param))


def test_zero_and_one_encodings(tables):
    assert tables.add2[0, 5 % tables.order2] == 5 % tables.order2
    assert tables.mul2[1, 3 % tables.order2] == 3 % tables.order2
    assert tables.mul2[0, 3 % tables.order2] == 0


def test_ring_axioms_exhaustive(tables):
    # q^2 <= 81 for every supported configuration, so check all triples
    n = tables.order2
    a = np.arange(n)[:, None, None]
    b = np.arange(n)[None, :, None]
    c = np.arange(n)[None, None, :]
    add, mul = tables.add2, tables.mul2
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (add[a[:, :, 0], b[:, :, 0]] == add[b[:, :, 0], a[:, :, 0]]).all()
    assert (mul[a[:, :, 0], b[:, :, 0]] == mul[b[:, :, 0], a[:, :, 0]]).all()


def test_inverses(tables):
    for a in range(1, tables.order2):
        assert tables.mul2[a, tables.inv_of(a)] == 1
    with pytest.raises(ZeroDivisionError):
        tables.inv_of(0)


def test_conjugation_is_frobenius_involution(tables):
    n, q = tables.order2, tables.q
    for a in range(n):
        # x^q by square-and-multiply through the tables
        acc, base, e = 1, a, q
        while e:
            if e & 1:
                acc = int(tables.mul2[acc, base])
            base = int(tables.mul2[base, base])
            e >>= 1
        assert tables.conj[a] == acc
        assert tables.conj[tables.conj[a]] == a


def test_conjugation_fixes_exactly_the_subfield(tables):
    fixed = [a for a in range(tables.order2) if tables.conj[a] == a]
    assert len(fixed) == tables.q


def test_conjugation_is_field_homomorphism(tables):
    n = tables.order2
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    cj = tables.conj
    assert (cj[tables.mul2[a, b]] == tables.mul2[cj[a], cj[b]]).all()
    assert (cj[tables.add2[a, b]] == tables.add2[cj[a], cj[b]]).all()


def test_norm_zero_one(tables):
    assert tables.norm[0] == 0
    assert tables.norm[1] == 1


def test_norm_fibers(tables):
    # norm is (q+1)-to-1 from nonzero elements onto nonzero subfield values
    q = tables.q
    images = {}
    for a in range(1, tables.order2):
        v = int(tables.norm[a])
        assert tables.conj[v] == v
        images[v] = images.get(v, 0) + 1
    assert len(images) == q - 1
    assert all(c == q + 1 for c in images.values())


def test_gf4_conjugation_swaps_nonsubfield_pair():
    t = build_field(FieldSpec(2, 1))
    outside = [a for a in range(4) if t.conj[a] != a]
    assert len(outside) == 2
    assert t.conj[outside[0]] == outside[1]
    assert t.conj[outside[1]] == outside[0]


def test_gf81_conjugation_fixed_points():
    t = build_field(FieldSpec(3, 2))
    fixed = int(np.count_nonzero(t.conj == np.arange(81)))
    assert fixed == 9


def test_gf25_norm_counts():
    t = build_field(FieldSpec(5, 1))
    counts = {}
    for a in range(1, 25):
        v = int(t.norm[a])
        counts[v] = counts.get(v, 0) + 1
    assert sorted(counts) == [v for v in range(1, 25) if t.conj[v] == v][:4]
    assert all(c == 6 for c in counts.values())


def test_modulus_is_canonical_and_irreducible():
    # smallest-encoding monic irreducible; spot values are pinned so the
    # serialized field metadata never drifts
    assert build_field(FieldSpec(2, 1)).modulus == (1, 1, 1)
    assert build_field(FieldSpec(3, 1)).modulus == (1, 0, 1)
    assert build_field(FieldSpec(5, 1)).modulus == (2, 0, 1)
    assert build_field(FieldSpec(7, 1)).modulus == (1, 0, 1)
    assert build_field(FieldSpec(3, 2)).modulus == (2, 1, 0, 0, 1)


def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        build_field(FieldSpec(4, 1))  # not prime
    with pytest.raises(ConfigurationError):
        build_field(FieldSpec(2, 0))
    with pytest.raises(ConfigurationError):
        build_field(FieldSpec(2, 13))  # q above MAX_Q
    with pytest.raises(ConfigurationError, match="exceeds"):
        build_field(FieldSpec(2**61 - 1, 1))  # a huge prime p, bounded before the primality test


def test_non_integer_spec_rejected_when_built():
    # q would read 2^2.5 = 5.66 and 2.0; build_field failed later on a slice index
    for p, k in ((2, 2.5), (2.0, 1)):
        with pytest.raises(TypeError):
            FieldSpec(p, k)
    assert FieldSpec(2, 3).q == 8


def test_spec_for_q():
    assert [FieldSpec.for_q(q) for q in (2, 4, 7, 9, 16)] == [
        FieldSpec(2, 1), FieldSpec(2, 2), FieldSpec(7, 1), FieldSpec(3, 2), FieldSpec(2, 4)
    ]
    for q in (-3, 0, 1, 6, 12):
        with pytest.raises(ConfigurationError, match=f"q={q} is not a prime power"):
            FieldSpec.for_q(q)
    # 2^61 - 1 is prime: trial division up to its square root would not finish
    with pytest.raises(ConfigurationError, match="exceeds the largest supported q"):
        FieldSpec.for_q(2**61 - 1)
