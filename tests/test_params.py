import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from pinchpass.params import (
    DerivedConstants,
    Scenario,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    derive_constants,
    linear_to_db,
    watts_to_dbm,
)


def test_dbm_conversion_reference_points():
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-15)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)


def test_db_to_linear_reference_points():
    assert db_to_linear(0.0) == 1.0
    # frozen from direct evaluation of 10**10.5
    assert db_to_linear(105.0) == pytest.approx(3.16227766017e10, rel=1e-11)


def test_dbm_round_trip():
    for dbm in (-90.0, -30.0, 0.0, 17.5, 44.0):
        w = dbm_to_watts(dbm)
        assert watts_to_dbm(w) == pytest.approx(dbm, abs=1e-12)
        assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-12)
    assert linear_to_db(db_to_linear(13.7)) == pytest.approx(13.7, abs=1e-12)


def test_eta_at_28ghz_with_rounded_c():
    p = SystemParams.reference()
    d = derive_constants(p)
    # frozen from c^2 / (16 pi^2 f_c^2) at c = 3e8, f_c = 28 GHz
    assert d.eta == pytest.approx(7.2695364539e-07, rel=1e-10)
    direct = p.c ** 2 / (16.0 * math.pi ** 2 * p.f_c ** 2)
    assert d.eta == direct


def test_constants_definitions_hold_exactly():
    p = SystemParams.reference(gamma_t_db=103.0, r=18.0, h=7.0, alpha=0.013, l=9.0)
    d = derive_constants(p)
    assert d.A == d.C - p.h * p.h
    assert d.B == d.eta * p.p_t + p.sigma2 * p.h * p.h
    assert d.Gamma >= 1.0 and d.Lambda >= 1.0
    assert d.Gamma == pytest.approx(math.sqrt(1 + p.sigma2 * p.r ** 2 / d.B), rel=1e-15)
    assert d.Lambda == pytest.approx(math.sqrt(1 + (p.r / p.h) ** 2), rel=1e-15)


def test_threshold_limits_of_a():
    p = SystemParams.reference()
    huge = p.with_(gamma_th=1e30)
    d = derive_constants(huge)
    assert d.C == pytest.approx(0.0, abs=1e-20)
    assert d.A == pytest.approx(-p.h * p.h, rel=1e-12)
    # p_t chosen so A vanishes identically
    d0 = derive_constants(p.with_(p_t=p.sigma2 * p.gamma_th * p.h ** 2 / d.eta))
    assert d0.A == pytest.approx(0.0, abs=1e-9)


def test_derive_constants_deterministic():
    p = SystemParams.reference(gamma_t_db=111.0)
    assert derive_constants(p) == derive_constants(p)


def test_a_monotonicity_on_grid():
    p = SystemParams.reference()
    powers = np.geomspace(p.p_t / 100, p.p_t * 100, 25)
    a_vals = [derive_constants(p.with_(p_t=float(pt))).A for pt in powers]
    assert all(b > a for a, b in zip(a_vals, a_vals[1:]))
    thresholds = np.geomspace(1.0, 1e6, 25)
    a_vals = [derive_constants(p.with_(gamma_th=float(g))).A for g in thresholds]
    assert all(b < a for a, b in zip(a_vals, a_vals[1:]))


def test_validation_rejects_bad_fields():
    good = SystemParams.reference()
    for field, value in (("r", -1.0), ("h", 0.0), ("sigma2", 0.0), ("p_t", -2.0),
                         ("alpha", -0.01), ("gamma_th", 0.0), ("l", 0.0),
                         ("l", good.r + 1.0), ("f_c", math.inf),
                         # scales past the float range: (r/h)^2 overflowed in
                         # derive_constants, f_c^2 underflowed to a zero divisor
                         ("r", 1e300), ("h", 1e-300), ("h", 1e-160), ("f_c", 1e-300)):
        with pytest.raises(ValueError, match=re.escape(f"invalid SystemParams.{field} = ")):
            good.with_(**{field: value})


def test_reference_half_length_is_half_the_radius_unless_given():
    assert SystemParams.reference().l == 12.5
    assert SystemParams.reference(r=15.0).l == 7.5
    assert SystemParams.reference(r=15.0, l=3.0).l == 3.0


def test_scenario_flags_and_parse():
    assert Scenario.parse(" fwl ") is Scenario.FWL
    assert Scenario.FWNL.full_coverage and not Scenario.FWNL.lossy
    assert Scenario.PWL.lossy and not Scenario.PWL.full_coverage
    assert Scenario.FWL.full_coverage and Scenario.FWL.lossy
    with pytest.raises(ValueError, match="unknown scenario"):
        Scenario.parse("XWL")


def test_half_length_per_scenario():
    p = SystemParams.reference(l=9.0)
    assert p.half_length(Scenario.FWNL) == p.r
    assert p.half_length(Scenario.FWL) == p.r
    assert p.half_length(Scenario.PWNL) == 9.0
    assert p.half_length(Scenario.PWL) == 9.0


def test_stored_constants_equal_derive_constants():
    p = SystemParams.reference(gamma_t_db=103.0, r=18.0, h=7.0, alpha=0.013, l=9.0)
    stored, fresh = p.constants, derive_constants(p)
    assert stored == fresh
    for name in DerivedConstants._fields:
        assert getattr(stored, name) == getattr(fresh, name), name
    # the public function still computes afresh
    assert derive_constants(p) is not stored
    # read-only, and no field
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.constants = fresh
    assert "constants" not in {f.name for f in dataclasses.fields(p)}


def test_copies_carry_their_own_constants():
    p = SystemParams.reference(gamma_t_db=103.0)
    copies = {
        "with_": p.with_(r=30.0),
        "replace": dataclasses.replace(p, r=30.0),
        "pickle": pickle.loads(pickle.dumps(p)),
    }
    for how, q in copies.items():
        assert q.constants == derive_constants(q), how
    # a new radius gives a new Lambda = sqrt(1 + r^2/h^2)
    assert copies["with_"].constants.Lambda != p.constants.Lambda
    assert copies["replace"].constants == copies["with_"].constants
    assert copies["pickle"] == p and copies["pickle"].constants == p.constants


def test_stored_constants_leave_eq_hash_repr_unchanged():
    p, q = SystemParams.reference(107.0), SystemParams.reference(107.0)
    object.__setattr__(q, "constants", None)
    assert p == q
    assert hash(p) == hash(q)
    assert repr(p) == repr(q)
    assert "constants" not in repr(p)


def test_validation_rejects_infinite_constants_and_keeps_a_zero_c():
    # c^2 and f_c^2 are in range, their ratio eta is not
    with pytest.raises(ValueError, match=re.escape("eta = c^2/(16 pi^2 f_c^2) = inf")):
        SystemParams.reference(c=1e150, f_c=1e-100)
    with pytest.raises(ValueError, match=re.escape("C = eta*p_t/(sigma2*gamma_th) = inf")):
        SystemParams.reference(p_t=1e300, sigma2=1e-20)
    # C = eta p_t/(sigma2 gamma_th) underflows to 0: every position is in outage
    p = SystemParams.reference(p_t=1e-320)
    assert p.constants.C == 0.0
