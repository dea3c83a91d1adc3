import pytest

from orbk.errors import ModelSpecError, UnsupportedModelError
from orbk.groups import GroupAction
from orbk.models import (
    build_cone,
    build_football,
    build_model,
    build_wpl,
)
from orbk.sections import build_section_space

from group_oracles import det_positivity_check


def test_football_three_has_two_singular_points():
    model = build_football(3)
    assert len(model.singular_points) == 2
    assert all(p.group_order == 3 for p in model.singular_points)
    assert model.bundle_step == 3


def test_smooth_models_have_no_singular_points():
    assert build_football(1).singular_points == ()
    assert build_wpl(1, 1).singular_points == ()


def test_wpl_one_two_single_singular_point():
    model = build_wpl(1, 2)
    assert len(model.singular_points) == 1
    assert model.singular_points[0].group_order == 2


def test_wpl_rejects_common_factor():
    with pytest.raises(ModelSpecError):
        build_wpl(2, 4)


def test_singular_point_action_dimension():
    for model in (build_football(4), build_wpl(2, 3), build_wpl(3, 5)):
        for p in model.singular_points:
            assert p.action.dim == model.dim


def test_no_fixed_directions_and_det_positivity():
    # det(I - g|T) != 0 for g != 1, and conjugate pairing gives positive reals
    for model in (build_football(2), build_football(5), build_wpl(3, 7)):
        for p in model.singular_points:
            for prod in det_positivity_check(p):
                assert prod > 1e-12


def test_cone_rejects_fixed_directions():
    with pytest.raises(ModelSpecError):
        build_cone(GroupAction.cyclic(4, [2, 0]))


def test_cone_accepts_free_action():
    model = build_cone(GroupAction.cyclic(3, [1, 2]))
    assert model.kind == "cone"
    assert len(model.singular_points) == 1


def test_total_volume_of_quotient():
    # the norm of the constant section is the total volume 1/q
    for model, q in [(build_football(1), 1), (build_football(2), 2),
                     (build_football(3), 3), (build_wpl(1, 2), 2),
                     (build_wpl(2, 3), 6), (build_wpl(3, 5), 15)]:
        assert model.quotient_order == q
        space = build_section_space(model, 0)
        assert space.gram[0, 0] == pytest.approx(1.0 / q, rel=1e-10)


def test_closed_forms_need_a_football():
    assert build_football(3).football_order() == 3
    for model in (build_wpl(1, 2), build_cone(GroupAction.cyclic(3, [1, 2]))):
        with pytest.raises(UnsupportedModelError):
            model.football_order()


def test_build_model_from_json_spec():
    m1 = build_model({"kind": "football", "n": 3})
    assert m1.params["n"] == 3
    m2 = build_model({"kind": "wpl", "d": [1, 2]})
    assert m2.kind == "wpl"
    with pytest.raises(ModelSpecError):
        build_model({"kind": "football"})
    with pytest.raises(ModelSpecError):
        build_model({"kind": "banana"})
