"""Placement plans and the Table III distribution views."""

import pytest

from repro.core.placement import PlacementError, PlacementPlan
from repro.model.application import Application, Dataflow, Microservice


def two_service_app():
    return Application(
        "app",
        [
            Microservice(name="a", image="a", size_gb=1.0),
            Microservice(name="b", image="b", size_gb=1.0),
        ],
        [Dataflow("a", "b", 10.0)],
    )


class TestPlan:
    def test_assign_and_lookup(self):
        plan = PlacementPlan("app")
        plan.assign("a", "hub", "medium")
        assert plan.device_of("a") == "medium"
        assert plan.assignments["a"].registry == "hub"
        assert "a" in plan and len(plan) == 1

    def test_double_assign_rejected(self):
        plan = PlacementPlan("app")
        plan.assign("a", "hub", "medium")
        with pytest.raises(PlacementError):
            plan.assign("a", "regional", "small")

    def test_missing_lookup_raises(self):
        with pytest.raises(PlacementError):
            PlacementPlan("app").device_of("ghost")

    def test_covers_and_validate(self):
        app = two_service_app()
        plan = PlacementPlan("app")
        plan.assign("a", "hub", "medium")
        with pytest.raises(PlacementError, match="missing"):
            plan.validate_against(app)
        plan.assign("b", "hub", "medium")
        plan.validate_against(app)

    def test_extra_assignment_rejected(self):
        app = two_service_app()
        plan = PlacementPlan("app")
        plan.assign("a", "hub", "medium")
        plan.assign("b", "hub", "medium")
        plan.assign("ghost", "hub", "medium")
        with pytest.raises(PlacementError, match="extra"):
            plan.validate_against(app)


class TestDistribution:
    def test_counts(self):
        plan = PlacementPlan("app")
        plan.assign("a", "hub", "medium")
        plan.assign("b", "hub", "medium")
        plan.assign("c", "regional", "small")
        assert plan.distribution() == {
            ("medium", "hub"): 2,
            ("small", "regional"): 1,
        }

    def test_percent_sums_to_100(self):
        plan = PlacementPlan("app")
        for i, (reg, dev) in enumerate(
            [("hub", "medium")] * 5 + [("regional", "small")]
        ):
            plan.assign(f"s{i}", reg, dev)
        pct = plan.distribution_percent()
        assert sum(pct.values()) == pytest.approx(100.0)
        assert pct[("medium", "hub")] == pytest.approx(83.333, rel=1e-3)

    def test_registry_share(self):
        plan = PlacementPlan("app")
        plan.assign("a", "hub", "medium")
        plan.assign("b", "regional", "small")
        assert plan.registry_share("regional") == 0.5
        assert plan.registry_share("ghost") == 0.0

    def test_empty_plan(self):
        plan = PlacementPlan("app")
        assert plan.distribution_percent() == {}
        assert plan.registry_share("hub") == 0.0
