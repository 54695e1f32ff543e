import json
from pathlib import Path

import numpy as np
import pytest

from destride import (
    ActivationLayer,
    ConvLayer,
    FullyConnectedLayer,
    NetworkSpec,
    SpecDocument,
    SpecFormatError,
    TransformMetadata,
    forward,
    init_params,
    load_document,
    save_document,
    transform_network,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _networks_equal(a: NetworkSpec, b: NetworkSpec) -> bool:
    if (a.name, a.input_shape, a.provenance) != (b.name, b.input_shape, b.provenance):
        return False
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if type(la) is not type(lb):
            return False
        if isinstance(la, ConvLayer):
            if (la.channels_out, la.kernel, la.stride) != (lb.channels_out, lb.kernel, lb.stride):
                return False
        elif isinstance(la, ActivationLayer):
            if la.function != lb.function:
                return False
        else:
            if la.units != lb.units:
                return False
            pa, pb = la.input_permutation, lb.input_permutation
            if (pa is None) != (pb is None):
                return False
            if pa is not None and not np.array_equal(pa, pb):
                return False
        wa = getattr(la, "weights", None)
        wb = getattr(lb, "weights", None)
        if (wa is None) != (wb is None):
            return False
        if wa is not None and not np.array_equal(wa, wb):
            return False
    return True


def _small_net(seed=None):
    spec = NetworkSpec(
        "tiny",
        (2, 6, 6),
        (ConvLayer(3, (2, 2), 2), ActivationLayer("relu"), FullyConnectedLayer(4)),
    )
    return spec if seed is None else init_params(spec, seed=seed)


def test_load_lenet_fixture():
    doc = load_document(FIXTURES / "lenet.json")
    net = doc.network
    assert net.name == "lenet-strided"
    assert net.input_shape == (1, 28, 28)
    assert len(net.layers) == 8
    assert doc.weights_mode is None
    assert doc.transform is None
    conv_strides = [l.stride for l in net.layers if isinstance(l, ConvLayer)]
    assert conv_strides == [1, 2, 1, 2]


def test_round_trip_architecture_only(tmp_path):
    spec = _small_net()
    save_document(tmp_path / "a.json", SpecDocument(network=spec))
    again = load_document(tmp_path / "a.json").network
    assert _networks_equal(spec, again)


def test_round_trip_inline_weights_bit_identical(tmp_path):
    spec = _small_net(seed=1)
    save_document(tmp_path / "a.json", SpecDocument(network=spec), weights_mode="inline")
    doc = load_document(tmp_path / "a.json")
    assert doc.weights_mode == "inline"
    assert _networks_equal(spec, doc.network)
    # save -> load -> save again is a fixed point
    save_document(tmp_path / "b.json", doc, weights_mode="inline")
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_round_trip_sidecar_weights_bit_identical(tmp_path):
    spec = _small_net(seed=2)
    save_document(tmp_path / "a.json", SpecDocument(network=spec), weights_mode="sidecar")
    assert (tmp_path / "a.weights.bin").exists()
    doc = load_document(tmp_path / "a.json")
    assert doc.weights_mode == "sidecar"
    assert _networks_equal(spec, doc.network)


def test_sidecar_is_little_endian_float64(tmp_path):
    spec = _small_net(seed=3)
    save_document(tmp_path / "a.json", SpecDocument(network=spec), weights_mode="sidecar")
    blob = np.fromfile(tmp_path / "a.weights.bin", dtype="<f8")
    w0 = spec.layers[0].weights.ravel()
    assert np.array_equal(blob[: w0.size], w0)
    total = sum(l.weights.size for l in spec.layers if getattr(l, "weights", None) is not None)
    assert blob.size == total


def test_reloaded_network_computes_identical_outputs(tmp_path):
    spec = _small_net(seed=5)
    r = np.random.default_rng(6)
    inputs = [r.standard_normal((2, 6, 6)) for _ in range(5)]
    for mode in ("inline", "sidecar"):
        path = tmp_path / f"{mode}.json"
        save_document(path, SpecDocument(network=spec), weights_mode=mode)
        again = load_document(path).network
        for x in inputs:
            assert np.array_equal(forward(spec, x), forward(again, x))


def test_transform_metadata_round_trip(tmp_path):
    spec = _small_net(seed=4)
    result = transform_network(spec)
    doc = SpecDocument(
        network=result.network,
        transform=TransformMetadata(source=spec.name, input_map=result.input_map),
    )
    save_document(tmp_path / "t.json", doc, weights_mode="inline")
    again = load_document(tmp_path / "t.json")
    assert again.transform is not None
    assert again.transform.source == "tiny"
    assert again.transform.input_map.stride == result.input_map.stride
    assert again.transform.input_map.entries == result.input_map.entries
    assert _networks_equal(result.network, again.network)


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    with pytest.raises(SpecFormatError):
        load_document(p)
    p.write_bytes(b'{"schema_version": 1, "network": {"name": "\xff"}}')  # not UTF-8
    with pytest.raises(SpecFormatError):
        load_document(p)


def test_load_rejects_wrong_schema_version(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"schema_version": 2, "network": {}}))
    with pytest.raises(SpecFormatError, match="schema_version"):
        load_document(p)


def test_load_rejects_missing_fields(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(SpecFormatError, match="network"):
        load_document(p)
    p.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "network": {"name": "n", "input_shape": [1, 4, 4], "layers": [{"kind": "conv"}]},
            }
        )
    )
    with pytest.raises(SpecFormatError, match="channels_out"):
        load_document(p)


def test_load_rejects_unknown_layer_kind(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "network": {"name": "n", "input_shape": [1, 4, 4], "layers": [{"kind": "pool"}]},
            }
        )
    )
    with pytest.raises(SpecFormatError, match="pool"):
        load_document(p)


def test_load_rejects_bad_layer_values(tmp_path):
    def doc(layers, input_shape=(1, 4, 4), transform=None, weights=None):
        raw = {
            "schema_version": 1,
            "network": {"name": "n", "input_shape": list(input_shape), "layers": layers},
        }
        if weights is not None:
            raw["weights"] = {"mode": "inline", "arrays": {"0": weights}}
        if transform is not None:
            # flatten_permutation as earlier versions wrote it
            raw["transform"] = {"source": "m", "input_map": transform,
                                "flatten_permutation": [0, 1]}
        return raw

    conv = {"kind": "conv", "channels_out": 2, "kernel": [2, 2], "stride": 2}
    dense = {"kind": "fully_connected", "units": 2}
    cases = [
        doc([{"kind": "conv", "channels_out": 0, "kernel": [2, 2]}]),
        # integers must be JSON integers: no truncated floats, no booleans
        doc([{**conv, "kernel": [1.7, 2]}]),
        doc([conv], input_shape=(1, 4.9, 4)),
        doc([{**conv, "channels_out": True}]),
        doc([conv, {**dense, "input_permutation": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]}]),
        doc([{**conv, "stride": 2.0}]),
        doc([{**dense, "units": True}]),
        doc([conv], transform={"stride": True, "entries": [[1, 1, 1]]}),
        doc([conv], transform={"stride": 1, "entries": [[True, 1, 1]]}),
        # only the keys of the layer's kind: a misspelt stride is not stride 1
        doc([{"kind": "conv", "channels_out": 2, "kernel": [2, 2], "strides": 2}]),
        doc([conv, {"kind": "activation", "function": "relu", "slope": 0.1}]),
        doc([conv, {**dense, "bias": [0.0, 0.0]}]),
        # inline weights are flat lists of JSON numbers (conv holds 8 values)
        doc([conv], weights=[True] * 8),
        doc([conv], weights=["0.5"] * 8),
        doc([conv], weights="0.5"),
        doc([conv], weights=[[0.5] * 4, [0.5] * 3]),
        doc([conv], weights=[[0.5] * 4, [0.5] * 4]),
    ]
    p = tmp_path / "x.json"
    for raw in cases:
        p.write_text(json.dumps(raw))
        with pytest.raises(SpecFormatError):
            load_document(p)


def test_inline_weights_wrong_length(tmp_path):
    spec = _small_net(seed=5)
    p = tmp_path / "a.json"
    save_document(p, SpecDocument(network=spec), weights_mode="inline")
    raw = json.loads(p.read_text())
    raw["weights"]["arrays"]["0"] = raw["weights"]["arrays"]["0"][:-1]
    p.write_text(json.dumps(raw))
    with pytest.raises(SpecFormatError, match="layer 0"):
        load_document(p)


def test_weights_for_non_parameterized_layer(tmp_path):
    spec = _small_net(seed=6)
    p = tmp_path / "a.json"
    save_document(p, SpecDocument(network=spec), weights_mode="inline")
    raw = json.loads(p.read_text())
    raw["weights"]["arrays"]["1"] = [0.0]  # layer 1 is an activation
    p.write_text(json.dumps(raw))
    with pytest.raises(SpecFormatError, match="not a parameterized"):
        load_document(p)


def test_sidecar_length_mismatch(tmp_path):
    spec = _small_net(seed=7)
    p = tmp_path / "a.json"
    save_document(p, SpecDocument(network=spec), weights_mode="sidecar")
    blob = np.fromfile(tmp_path / "a.weights.bin", dtype="<f8")
    blob[:-3].tofile(tmp_path / "a.weights.bin")  # truncate
    with pytest.raises(SpecFormatError, match="sidecar holds"):
        load_document(p)


def test_sidecar_missing_file(tmp_path):
    spec = _small_net(seed=8)
    p = tmp_path / "a.json"
    save_document(p, SpecDocument(network=spec), weights_mode="sidecar")
    (tmp_path / "a.weights.bin").unlink()
    with pytest.raises(OSError):
        load_document(p)


def test_save_rejects_unknown_mode(tmp_path):
    spec = _small_net(seed=9)
    with pytest.raises(ValueError, match="mode"):
        save_document(tmp_path / "a.json", SpecDocument(network=spec), weights_mode="csv")


def test_corrupted_sidecar_changes_loaded_values(tmp_path):
    # same lengths, different bytes: loads fine, values differ (verify's job)
    spec = _small_net(seed=10)
    p = tmp_path / "a.json"
    save_document(p, SpecDocument(network=spec), weights_mode="sidecar")
    blob = np.fromfile(tmp_path / "a.weights.bin", dtype="<f8")
    blob[0] += 1.0
    blob.tofile(tmp_path / "a.weights.bin")
    doc = load_document(p)
    assert not _networks_equal(spec, doc.network)
    assert doc.network.layers[0].weights.ravel()[0] == spec.layers[0].weights.ravel()[0] + 1.0
