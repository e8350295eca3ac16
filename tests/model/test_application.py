"""Application DAG model: structure, validation, stages/barriers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.application import (
    Application,
    CycleError,
    Dataflow,
    Microservice,
    ResourceRequirements,
)


def ms(name, size=1.0, cpu=100.0, **kw):
    return Microservice(
        name=name,
        image=name,
        size_gb=size,
        requirements=ResourceRequirements(cpu_mi=cpu),
        **kw,
    )


def diamond():
    """a -> {b, c} -> d."""
    return Application(
        "diamond",
        [ms("a"), ms("b"), ms("c"), ms("d")],
        [
            Dataflow("a", "b", 10.0),
            Dataflow("a", "c", 20.0),
            Dataflow("b", "d", 30.0),
            Dataflow("c", "d", 40.0),
        ],
    )


class TestMicroservice:
    def test_fields_validated(self):
        with pytest.raises(ValueError):
            Microservice(name="", image="x", size_gb=1.0)
        with pytest.raises(ValueError):
            Microservice(name="x", image="", size_gb=1.0)
        with pytest.raises(ValueError):
            Microservice(name="x", image="x", size_gb=-1.0)

    def test_warm_fraction_bounds(self):
        with pytest.raises(ValueError):
            ms("x", warm_fraction=1.5)
        with pytest.raises(ValueError):
            ms("x", warm_fraction=-0.1)

    def test_cold_pull_gb(self):
        service = ms("x", size=4.0, warm_fraction=0.25)
        assert service.cold_pull_gb == pytest.approx(3.0)

    def test_requirements_validated(self):
        with pytest.raises(ValueError):
            ResourceRequirements(cores=0)
        with pytest.raises(ValueError):
            ResourceRequirements(cpu_mi=-1.0)


class TestDataflow:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Dataflow("a", "a", 1.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Dataflow("a", "b", -1.0)


class TestConstruction:
    def test_duplicate_service_rejected(self):
        app = Application("t", [ms("a")])
        with pytest.raises(ValueError):
            app.add_microservice(ms("a"))

    def test_unknown_endpoint_rejected(self):
        app = Application("t", [ms("a")])
        with pytest.raises(KeyError):
            app.add_dataflow(Dataflow("a", "ghost", 1.0))

    def test_duplicate_edge_rejected(self):
        app = Application("t", [ms("a"), ms("b")], [Dataflow("a", "b", 1.0)])
        with pytest.raises(ValueError):
            app.add_dataflow(Dataflow("a", "b", 2.0))

    def test_cycle_rejected_eagerly(self):
        app = Application(
            "t", [ms("a"), ms("b")], [Dataflow("a", "b", 1.0)]
        )
        with pytest.raises(CycleError):
            app.add_dataflow(Dataflow("b", "a", 1.0))

    def test_long_cycle_rejected(self):
        app = Application(
            "t",
            [ms("a"), ms("b"), ms("c")],
            [Dataflow("a", "b", 1.0), Dataflow("b", "c", 1.0)],
        )
        with pytest.raises(CycleError):
            app.add_dataflow(Dataflow("c", "a", 1.0))


class TestAccessors:
    def test_len_and_contains(self):
        app = diamond()
        assert len(app) == 4
        assert "a" in app and "ghost" not in app

    def test_in_out_flows(self):
        app = diamond()
        assert {f.size_mb for f in app.in_flows("d")} == {30.0, 40.0}
        assert {f.size_mb for f in app.in_flows("a")} == set()


class TestStructure:
    def test_topological_order_respects_edges(self):
        app = diamond()
        order = app.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_stages_of_diamond(self):
        assert diamond().stages() == [["a"], ["b", "c"], ["d"]]

    def test_barriers_count_matches_paper_shape(self, video_app):
        # Fig. 2: source, prep, two trains, two downstream stages.
        stages = video_app.stages()
        assert len(stages) == 4
        assert stages[2] == ["vp-ha-train", "vp-la-train"]


@given(n=st.integers(2, 8), seed=st.integers(0, 1000))
def test_random_chain_always_topologically_consistent(n, seed):
    """Property: chains of any length sort consistently with edges."""
    names = [f"s{i}" for i in range(n)]
    app = Application(
        "chain",
        [ms(name) for name in names],
        [Dataflow(names[i], names[i + 1], 1.0) for i in range(n - 1)],
    )
    order = app.topological_order()
    assert order == names
    assert app.stages() == [[name] for name in names]
