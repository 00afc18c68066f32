import pickle

import pytest

from cqcalc.exactmath import DomainError
from cqcalc.matroid import euler_characteristic_complement
from cqcalc.segre import (
    SegreData,
    mu_from_segre,
    mu_nu_inequality_check,
    nu_from_mu_correction,
    nu_from_segre,
)

CREMONA = SegreData(degF=4, nL=2, mY=1, s=(0, 6))
HOLLOW_MU = SegreData(degF=3, nL=3, mY=0, s=(4,))
HOLLOW_NU = SegreData(degF=3, nL=3, mY=1, s=(2, -5))


def test_mu_from_segre_worked_examples():
    # 3^2 - C(2,1)*3*0 - C(2,2)*6 = 3
    assert mu_from_segre(CREMONA, 2) == 3
    # 2^3 - C(3,3)*4 = 4
    assert mu_from_segre(HOLLOW_MU, 3) == 4
    assert mu_from_segre(CREMONA, 0) == 1
    assert mu_from_segre(HOLLOW_MU, 0) == 1


def test_mu_from_segre_full_rows():
    assert [mu_from_segre(CREMONA, i) for i in range(3)] == [1, 3, 3]
    assert [mu_from_segre(HOLLOW_MU, i) for i in range(4)] == [1, 2, 4, 4]


def test_nu_from_segre_worked_examples():
    # 2^3 - C(3,2)*2*2 - C(3,3)*(-5) = 1
    assert nu_from_segre(HOLLOW_NU, 3) == 1
    assert [nu_from_segre(HOLLOW_NU, i) for i in range(4)] == [1, 2, 2, 1]
    assert nu_from_segre(CREMONA, 1) == 3
    assert nu_from_segre(HOLLOW_NU, 0) == 1


def test_bezout_bound_without_base_locus():
    data = SegreData(degF=5, nL=3, mY=1, s=(0, 0))
    for i in range(4):
        assert mu_from_segre(data, i) == 4**i


def test_mu_equals_nu_for_coordinate_product():
    # with the same Segre input the two formulas agree identically
    for i in range(3):
        assert mu_from_segre(CREMONA, i) == nu_from_segre(CREMONA, i)


def test_index_and_data_validation():
    with pytest.raises(DomainError):
        mu_from_segre(CREMONA, 3)
    with pytest.raises(DomainError):
        mu_from_segre(CREMONA, -1)
    with pytest.raises(DomainError):
        SegreData(degF=3, nL=2, mY=1, s=(1,))
    with pytest.raises(DomainError):
        SegreData(degF=0, nL=2, mY=0, s=(1,))


def test_segre_data_value_semantics():
    data = SegreData(4, 2, 1, [0, 6])
    assert data.s == (0, 6) and isinstance(data.s, tuple)
    assert repr(data) == "SegreData(degF=4, nL=2, mY=1, s=(0, 6))"
    assert data == CREMONA and hash(data) == hash(CREMONA)
    assert data != HOLLOW_MU
    assert data != (4, 2, 1, (0, 6))
    assert pickle.loads(pickle.dumps(data)) == data
    with pytest.raises(AttributeError):
        data.degF = 5
    with pytest.raises(AttributeError):
        del data.s
    assert data == CREMONA


def test_segre_data_validation_errors():
    with pytest.raises(DomainError, match="degF must be >= 1"):
        SegreData(degF=0, nL=2, mY=0, s=(1,))
    with pytest.raises(DomainError, match="need 2 Segre degrees, got 1"):
        SegreData(degF=3, nL=2, mY=1, s=(1,))
    with pytest.raises(TypeError):
        SegreData(degF="3", nL=2, mY=0, s=(1,))
    with pytest.raises(TypeError):
        SegreData(degF=3, nL=2, mY=0)
    # a field or Segre degree without __index__ is refused, not truncated
    for fields in ({"nL": "2"}, {"mY": None}, {"s": ("x",)}, {"s": (1.5,)},
                   {"degF": 2.5}, {"degF": float("inf")}, {"s": 5}):
        with pytest.raises(TypeError):
            SegreData(**{"degF": 3, "nL": 2, "mY": 0, "s": (1,), **fields})
    # mY is a dimension of a subscheme of the ambient space
    for nL, mY in ((1, -5), (2, -1), (2, 2), (1, 1)):
        with pytest.raises(DomainError, match=rf"mY must be in 0\.\.{nL - 1}, got {mY}"):
            SegreData(degF=3, nL=nL, mY=mY, s=(1,) * max(mY + 1, 0))


def test_nu_from_mu_correction():
    # 4 - (C(5,0)*(-7) + C(5,1)*2) = 4 + 7 - 10 = 1
    assert nu_from_mu_correction(4, 5, 1, (-7, 2)) == 1
    # empty intersection leaves the top bidegree unchanged
    assert nu_from_mu_correction(9, 7, -1, ()) == 9
    # reproduces the published top gap 9 - 5 = C(9,0)*4
    assert nu_from_mu_correction(9, 9, 0, (4,)) == 5
    with pytest.raises(DomainError):
        nu_from_mu_correction(4, 5, 1, (1,))


def test_mu_nu_inequality_check():
    mu = (1, 3, 9, 17, 21, 21, 17, 9)
    nu = (1, 3, 9, 17, 21, 21, 15, 5)
    assert mu_nu_inequality_check(mu, nu)
    assert mu_nu_inequality_check((1, 2, 1), (1, 2, 1))
    # pointwise violation in the middle
    assert not mu_nu_inequality_check((1, 2, 4), (1, 3, 4))
    # equal last entries force equality everywhere
    assert not mu_nu_inequality_check((1, 3, 3), (1, 2, 3))
    with pytest.raises(DomainError):
        mu_nu_inequality_check((1, 2), (1,))


def test_euler_sum_consistency_with_nu_row():
    nu = [nu_from_segre(HOLLOW_NU, i) for i in range(4)]
    assert euler_characteristic_complement(nu) == 0
