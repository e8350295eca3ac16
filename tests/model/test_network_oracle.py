"""Differential tests: the one-store device channels against their
frozen per-pair reference (:mod:`network_oracle`).

Both models take the same random sequence of symmetric and asymmetric
connects, overwrites and overlapping meshes.  After every operation
they must agree on each destination's row (key order included), on
``device_channel`` for every ordered pair, on
the preference order and on ``transfer_path``.  Queries run between
mutations, so a cache a mutation failed to drop shows up as a
difference.  The live rows and orders are compared without their
destination's own entry, which a shared mesh row names.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import NetworkModel

from network_oracle import OracleNetworkModel

NAMES = [f"d{i}" for i in range(6)]

name_idx = st.integers(0, len(NAMES) - 1)
#: Few distinct values, so ties in bandwidth are common.
bandwidths = st.sampled_from([50.0, 100.0, 400.0, 800.0])
rtts = st.sampled_from([0.0, 0.02])

#: One topology mutation.  ``connect`` may name one device twice (a
#: loopback, rejected by both models); ``mesh`` takes distinct names in
#: any order, overlapping earlier meshes at a different bandwidth.
operations = st.one_of(
    st.tuples(
        st.just("connect"), name_idx, name_idx, bandwidths, rtts,
        st.booleans(),
    ),
    st.tuples(
        st.just("mesh"),
        st.lists(name_idx, unique=True, max_size=len(NAMES)),
        bandwidths,
        rtts,
    ),
)


def _apply(net, op):
    """Apply ``op``; the exception type it raised, or None."""
    try:
        if op[0] == "connect":
            _, a, b, bandwidth, rtt, symmetric = op
            net.connect_devices(
                NAMES[a], NAMES[b], bandwidth, rtt, symmetric=symmetric
            )
        else:
            _, members, bandwidth, rtt = op
            net.connect_device_mesh(
                [NAMES[i] for i in members], bandwidth, rtt
            )
    except ValueError as exc:
        return type(exc)
    return None


def _answer(lookup, *args):
    try:
        return lookup(*args)
    except KeyError:
        return KeyError


def _observe(net):
    """Everything a reader can see of the device channels."""
    rows = {dst: list(net.channels_into(dst).items()) for dst in NAMES}
    pairs = {
        (src, dst): (
            _answer(net.device_channel, src, dst),
            _answer(net.transfer_path, src, dst),
        )
        for src in NAMES
        for dst in NAMES
    }
    prefs = {dst: net.device_sources_by_preference(dst) for dst in NAMES}
    return rows, pairs, prefs


def _without_destinations(observed):
    """``observed`` minus each destination's entry in its own row and
    preference order: a shared mesh row names its destination, which
    is never its own source.  Only the live store has such entries."""
    rows, pairs, prefs = observed
    rows = {
        dst: [(src, channel) for src, channel in row if src != dst]
        for dst, row in rows.items()
    }
    prefs = {
        dst: tuple(src for src in order if src != dst)
        for dst, order in prefs.items()
    }
    return rows, pairs, prefs


def _shape(net, regions, shaped):
    for name, region in zip(NAMES, regions):
        if region is not None:
            net.set_region(name, region)
    if shaped:
        net.set_uplink(NAMES[0], 300.0)
        net.set_downlink(NAMES[1], 250.0)
        net.set_regional_uplink(NAMES[2], "r1", 120.0)


@settings(max_examples=300, deadline=None)
@given(
    regions=st.lists(
        st.sampled_from([None, "r0", "r1"]),
        min_size=len(NAMES), max_size=len(NAMES),
    ),
    shaped=st.booleans(),
    ops=st.lists(operations, min_size=1, max_size=25),
)
def test_device_channels_match_the_frozen_store(regions, shaped, ops):
    live, oracle = NetworkModel(), OracleNetworkModel()
    _shape(live, regions, shaped)
    _shape(oracle, regions, shaped)
    for step, op in enumerate(ops):
        assert _apply(live, op) == _apply(oracle, op), (step, op)
        observed = _without_destinations(_observe(live))
        assert observed == _observe(oracle), (step, op)
        rows = observed[0]
        for dst in NAMES:
            # The dropped in-neighbor sets held exactly the row keys.
            assert set(oracle.device_in_neighbors(dst)) == {
                src for src, _ in rows[dst]
            }
            assert live.device_channel(dst, dst) is None
