import importlib
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from destride import (
    ActivationLayer,
    ChannelMap,
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
from destride import specio
from oracles import document_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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


def test_relative_sidecar_path_outside_document_dir_reloads(tmp_path, monkeypatch):
    # sidecar_path is relative to the working directory, the document's
    # "path" to the document's directory
    monkeypatch.chdir(tmp_path)
    spec = _small_net(seed=2)
    (tmp_path / "docs" / "sub").mkdir(parents=True)
    (tmp_path / "other").mkdir()
    for sidecar, recorded in (("other/w.bin", "../other/w.bin"), ("docs/sub/w.bin", "sub/w.bin")):
        save_document("docs/a.json", SpecDocument(network=spec), weights_mode="sidecar",
                      sidecar_path=sidecar)
        assert json.loads(Path("docs/a.json").read_text())["weights"]["path"] == recorded
        # weights compared by np.array_equal
        assert _networks_equal(spec, load_document("docs/a.json").network)


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


def test_load_rejects_unknown_document_and_network_keys(tmp_path):
    base = {
        "schema_version": 1,
        "network": {"name": "n", "provenance": "original", "input_shape": [1, 4, 4],
                    "layers": [{"kind": "fully_connected", "units": 2}]},
    }
    p = tmp_path / "x.json"
    p.write_text(json.dumps(base))
    load_document(p)
    misspelt = dict(base, weigths={"mode": "inline", "arrays": {"0": [0.5] * 32}})
    p.write_text(json.dumps(misspelt))
    with pytest.raises(SpecFormatError, match="'weigths'"):
        load_document(p)
    network = dict(base["network"], input_size=[1, 4, 4])
    p.write_text(json.dumps(dict(base, network=network)))
    with pytest.raises(SpecFormatError, match="'input_size'"):
        load_document(p)


# rectangular input and kernels, strides 2, 3 and 1
RECT = NetworkSpec(
    "rect",
    (2, 24, 30),
    (ConvLayer(3, (2, 8), 2), ActivationLayer("relu"), ConvLayer(4, (3, 6), 3),
     ActivationLayer("relu"), ConvLayer(2, (1, 2), 1), FullyConnectedLayer(3)),
)


def _written_documents(tmp_path, spec):
    """(path, weights mode, parsed text) of spec's original and transformed
    documents, each saved with no weights, inline and sidecar."""
    result = transform_network(spec)
    transformed = SpecDocument(
        network=result.network,
        transform=TransformMetadata(source=spec.name, input_map=result.input_map),
    )
    for name, doc in (("orig", SpecDocument(network=spec)), ("tr", transformed)):
        for mode in (None, "inline", "sidecar"):
            p = tmp_path / f"{spec.name}-{name}-{mode}.json"
            save_document(p, doc, weights_mode=mode)
            yield p, mode, json.loads(p.read_text())


def _objects(raw):
    """(object, its entry in the reader's key table) for every object of a
    parsed document that the table closes."""
    keys = specio._KEYS
    yield raw, keys["document"]
    yield raw["network"], keys["network"]
    for layer in raw["network"]["layers"]:
        yield layer, keys["layer"][layer["kind"]]
    if "weights" in raw:
        yield raw["weights"], keys["weights"][raw["weights"]["mode"]]
    if "transform" in raw:
        yield raw["transform"], keys["transform"]
        yield raw["transform"]["input_map"], keys["transform.input_map"]


def test_written_keys_are_exactly_the_read_keys(tmp_path, lenet):
    # the writer emits every key of each object's table entry (a document
    # only the blocks it holds), and the reader rejects one key more by name;
    # LeNet's inline documents, megabytes of text each, hold no kind of
    # object that RECT's do not, so only their keys are compared
    for spec in (lenet, init_params(RECT, seed=0)):
        for p, mode, raw in _written_documents(tmp_path, spec):
            for obj, keys in _objects(raw):
                held = keys - ({"weights", "transform"} - set(raw)) if obj is raw else keys
                assert set(obj) == held, (p.name, sorted(obj))
                if spec is lenet and mode == "inline":
                    continue
                obj["extra"] = 0
                p.write_text(json.dumps(raw))
                with pytest.raises(SpecFormatError, match="unknown field 'extra'"):
                    load_document(p)
                del obj["extra"]


def test_benchmark_reference_documents_load(tmp_path, lenet, monkeypatch):
    # the benchmark writes its original documents without destride.specio
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    reference = importlib.import_module("reference")
    for spec in (lenet, init_params(RECT, seed=0)):
        save_document(tmp_path / "arch.json", SpecDocument(network=spec))
        layers = json.loads((tmp_path / "arch.json").read_text())["network"]["layers"]
        weights = {i: l.weights for i, l in enumerate(spec.layers)
                   if getattr(l, "weights", None) is not None}
        net = reference.Net(spec.name, spec.input_shape, layers, weights)
        for mode in ("inline", "sidecar"):
            p = tmp_path / f"{spec.name}-{mode}.json"
            reference.write_document(p, net, mode)
            doc = load_document(p)
            assert doc.weights_mode == mode
            assert _networks_equal(doc.network, spec)


def test_load_rejects_non_string_provenance(tmp_path):
    p = tmp_path / "x.json"
    for provenance in (5, None, ["original"]):
        raw = {
            "schema_version": 1,
            "network": {"name": "n", "provenance": provenance, "input_shape": [1, 4, 4],
                        "layers": []},
        }
        p.write_text(json.dumps(raw))
        with pytest.raises(SpecFormatError, match="provenance"):
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
            raw["transform"] = {"source": "m", "input_map": transform}
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
        # earlier versions' dense input_permutation, whatever it holds
        doc([conv, {**dense, "input_permutation": None}]),
        doc([conv, {**dense, "input_permutation": [0, 1, 2, 3, 4]}]),
        doc([conv, {**dense, "input_permutation": [0, 1, 2, 3, 4, 5, 6, 8]}]),
        doc([conv, {**dense, "input_permutation": [-1, 0, 1, 2, 3, 4, 5, 6]}]),
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
        # an integer too large for float64
        doc([conv], weights=[1, 2, 3, 4, 5, 6, 7, 10**400]),
    ]
    # a layer-index key is the canonical str(i), so no two keys name one layer
    np.full(8, 0.5).tofile(tmp_path / "w.bin")
    for aliases in ({"0": [0.5] * 8, "00": [0.25] * 8}, {"+0": [0.5] * 8}, {" 0": [0.5] * 8}):
        cases.append(dict(doc([conv]), weights={"mode": "inline", "arrays": aliases}))
    for key in ("00", "+0", " 0", "0 "):
        cases.append(dict(doc([conv]), weights={"mode": "sidecar", "path": "w.bin",
                                                "lengths": {key: 8}}))
    # lengths are counts: -16 and 40 add up to the 24 values the blob holds,
    # and slicing with a negative end would hand each layer the size it needs
    np.full(24, 0.5).tofile(tmp_path / "w24.bin")
    cases.append(dict(doc([conv, dense]), weights={"mode": "sidecar", "path": "w24.bin",
                                                   "lengths": {"0": -16, "1": 40}}))
    # no object repeats a key, where json.loads alone keeps the last one
    text = json.dumps(doc([conv], weights=[0.5] * 8))
    cases += [
        text.replace('"arrays": {', '"arrays": {"0": [9, 9, 9, 9, 9, 9, 9, 9], '),
        text.replace('"stride": 2', '"stride": 2, "stride": 1'),
        text.replace('"weights": {', '"weights": {"mode": "inline", "arrays": {}}, "weights": {'),
    ]
    p = tmp_path / "x.json"
    for raw in cases:
        p.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        with pytest.raises(SpecFormatError):
            load_document(p)


def _entry(edit):
    return lambda raw: edit(raw["transform"]["input_map"]["entries"])


def _field(i, key, value):
    return lambda raw: raw["network"]["layers"][i].__setitem__(key, value)


@pytest.mark.parametrize("edit, message", [
    (_entry(lambda e: e[0].__setitem__(0, 1.0)),
     "transform.input_map: entries: expected an integer, got 1.0"),
    (_entry(lambda e: e[1].__setitem__(2, True)),
     "transform.input_map: entries: expected an integer, got True"),
    (_entry(lambda e: e[0].pop()),
     "transform: entries must cover every (channel, p, q) exactly once"),
    (_entry(lambda e: e[0].append(1)),
     "transform: entries must cover every (channel, p, q) exactly once"),
    (_entry(lambda e: e[2].__setitem__(1, [1])),
     "transform.input_map: entries: expected an integer, got [1]"),
    (_entry(lambda e: e.__setitem__(3, "1, 1, 1")),
     "transform.input_map: entries: expected a list of integers, got '1, 1, 1'"),
    (_field(0, "channels_out", 12.0), "layer 0: field 'channels_out': expected an integer, got 12.0"),
    (_field(0, "channels_out", True), "layer 0: field 'channels_out': expected an integer, got True"),
    (_field(0, "kernel", [1, 1.0]), "layer 0: kernel: expected an integer, got 1.0"),
    (_field(0, "kernel", [True, 1]), "layer 0: kernel: expected an integer, got True"),
    (_field(0, "stride", 1.0), "layer 0: stride: expected an integer, got 1.0"),
    (_field(0, "stride", True), "layer 0: stride: expected an integer, got True"),
    (_field(2, "units", 4.0), "layer 2: field 'units': expected an integer, got 4.0"),
    (_field(2, "units", True), "layer 2: field 'units': expected an integer, got True"),
], ids=[
    "entry-float", "entry-bool", "entry-2-items", "entry-4-items", "entry-nested", "entry-string",
    "channels_out-float", "channels_out-bool", "kernel-float", "kernel-bool", "stride-float",
    "stride-bool", "units-float", "units-bool",
])
def test_malformed_transformed_values_keep_their_messages(tmp_path, edit, message):
    # one value spoilt in the transformed document of _small_net, whose input
    # map is source-major: each is refused with the message it always had
    spec = _small_net()
    result = transform_network(spec)
    p = tmp_path / "t.json"
    save_document(p, SpecDocument(result.network, TransformMetadata(spec.name, result.input_map)))
    raw = json.loads(p.read_text())
    edit(raw)
    p.write_text(json.dumps(raw))
    with pytest.raises(SpecFormatError) as e:
        load_document(p)
    assert str(e.value) == message


def test_decimal_beyond_float64_is_rejected_but_spelled_constants_load(tmp_path):
    # json.loads turns 1e400 into an infinity; only the spelled Infinity and
    # -Infinity may load as one, and 1e-400 rounds to 0.0 as it should
    p = tmp_path / "x.json"
    text = json.dumps({
        "schema_version": 1,
        "network": {"name": "n", "provenance": "original", "input_shape": [1, 4, 4],
                    "layers": [{"kind": "conv", "channels_out": 1, "kernel": [2, 2],
                                "stride": 2}]},
        "weights": {"mode": "inline", "arrays": {"0": [1.0, 2.0, 3.0, "LAST"]}},
    })
    for literal in ("1e400", "-1e400", "1E+999"):
        p.write_text(text.replace('"LAST"', literal))
        with pytest.raises(SpecFormatError, match="layer 0 has a number beyond float64"):
            load_document(p)
        p.write_text(text.replace('"LAST"', f"Infinity, {literal}").replace("1.0, ", ""))
        with pytest.raises(SpecFormatError, match="layer 0"):
            load_document(p)
    for literal, want in (("NaN", np.nan), ("Infinity", np.inf), ("-Infinity", -np.inf),
                          ("1e-400", 0.0), ("-1e-400", -0.0)):
        p.write_text(text.replace('"LAST"', literal))
        got = load_document(p).network.layers[0].weights
        assert np.array_equal(got.ravel(), [1.0, 2.0, 3.0, want], equal_nan=True), literal
        assert np.signbit(got.flat[3]) == np.signbit(want)


def test_input_permutation_is_folded_at_load_and_never_written(tmp_path):
    # earlier versions gave a dense layer the order of the features it reads,
    # which the reader folded into the weights; it no longer folds the list
    # but rejects it, with weights or without, and the writer never emits it
    spec = _small_net(seed=7)
    for mode in ("inline", "sidecar", None):
        p = tmp_path / f"{mode}.json"
        save_document(p, SpecDocument(network=spec), weights_mode=mode)
        assert "input_permutation" not in p.read_text()
        raw = json.loads(p.read_text())
        raw["network"]["layers"][2]["input_permutation"] = list(range(27))
        p.write_text(json.dumps(raw))
        with pytest.raises(SpecFormatError, match="layer 2 .*'input_permutation'"):
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
    side = tmp_path / "a.weights.bin"
    good = side.read_bytes()
    # three values short, one value over, and 1-7 trailing bytes, which
    # np.fromfile would drop as a partial last value
    cases = [good[:-24], good + good[:8]] + [good + b"\xff" * k for k in range(1, 8)]
    for data in cases:
        side.write_bytes(data)
        with pytest.raises(SpecFormatError, match="sidecar holds"):
            load_document(p)
    side.write_bytes(good)
    assert _networks_equal(spec, load_document(p).network)


def test_sidecar_missing_file(tmp_path):
    spec = _small_net(seed=8)
    p = tmp_path / "a.json"
    save_document(p, SpecDocument(network=spec), weights_mode="sidecar")
    (tmp_path / "a.weights.bin").unlink()
    with pytest.raises(OSError):
        load_document(p)


def test_save_rejects_unknown_mode(tmp_path):
    # with weights or without: an architecture-only network once wrote its
    # document whatever the mode said
    for net in (_small_net(seed=9), _small_net()):
        path = tmp_path / "a.json"
        with pytest.raises(ValueError, match="^unknown weights mode 'csv'$"):
            save_document(path, SpecDocument(network=net), weights_mode="csv")
        assert not path.exists() and not path.with_suffix(".weights.bin").exists()


def test_names_must_be_strings():
    # documents spell them as JSON strings and the reader takes nothing else,
    # so the writer once died in json, or wrote what it could not read back
    for field in ("name", "provenance"):
        for value in (5, None, b"n", ["n"]):
            args = {"name": "n", "input_shape": (1, 4, 4), "layers": (), field: value}
            with pytest.raises(ValueError, match=f"^{field} must be a str, got "):
                NetworkSpec(**args)
    imap = ChannelMap(2, [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)])
    for value in (5, None, Path("a.json")):
        with pytest.raises(ValueError, match="^source must be a str, got "):
            TransformMetadata(value, imap)
    assert TransformMetadata("a.json", imap).source == "a.json"


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


@pytest.fixture(scope="module")
def lenet():
    return init_params(load_document(FIXTURES / "lenet.json").network, seed=0)


def test_saved_bytes_equal_single_dumps_on_transformed_lenet(tmp_path, lenet):
    result = transform_network(lenet)
    doc = SpecDocument(
        network=result.network,
        transform=TransformMetadata(source=lenet.name, input_map=result.input_map),
    )
    for mode in ("inline", "sidecar"):
        p = tmp_path / f"{mode}.json"
        save_document(p, doc, weights_mode=mode)
        assert p.read_bytes() == document_text(p, doc, weights_mode=mode).encode()


def test_saved_bytes_equal_single_dumps_on_edge_cases(tmp_path):
    spec = _small_net(seed=11)
    conv, relu, dense = spec.layers
    specials = np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16,
         -1e16, 9007199254740993.0, 1e-7, 0.1] * 2
    ).reshape(conv.weights.shape)
    ints = np.arange(-12, 12, dtype=np.int64).reshape(conv.weights.shape)
    imap = transform_network(spec).input_map
    shuffled = ChannelMap(imap.stride, imap.entries[1::2] + imap.entries[::2])
    one = ChannelMap(1, [(1, 1, 1)])
    placeholders = ["[]", '\n   "0": []', '"0": []', '   "0": []\n', '"entries": []', "]", "}",
                    "\n", '\n   ]\n  }\n }']
    docs = [
        SpecDocument(network=_small_net()),
        SpecDocument(network=spec),
        SpecDocument(network=replace(spec, layers=(replace(conv, weights=specials), relu, dense))),
        SpecDocument(network=replace(spec, layers=(
            replace(conv, weights=ints), relu, replace(dense, weights=dense.weights.astype(np.float32))
        ))),
        # a layer whose weights array is empty is written as []
        SpecDocument(network=replace(spec, layers=(conv, relu, replace(dense, weights=np.empty(0))))),
        SpecDocument(
            network=replace(spec, name="r\u00e9seau \u7f51\u7edc \U0001f600", provenance="\u00fc"),
            transform=TransformMetadata(source="\u00df\u2028\x00", input_map=imap),
        ),
        # an input map in another order than source-major, and one of one entry
        SpecDocument(network=spec, transform=TransformMetadata(source="s", input_map=shuffled)),
        SpecDocument(
            network=NetworkSpec("one", (1, 3, 3), (ConvLayer(2, (3, 3)),)),
            transform=TransformMetadata(source="s", input_map=one),
        ),
        # an architecture-only document with a transform block, and no layers
        SpecDocument(network=_small_net(), transform=TransformMetadata("s", imap)),
        SpecDocument(network=NetworkSpec("none", (1, 1, 1), ())),
    ]
    for text in placeholders:
        docs.append(SpecDocument(
            network=replace(spec, name=text, provenance=text),
            transform=TransformMetadata(source=text, input_map=imap),
        ))
    p = tmp_path / "a.json"
    for doc in docs:
        for mode in (None, "inline", "sidecar"):
            save_document(p, doc, weights_mode=mode)
            assert p.read_bytes() == document_text(p, doc, weights_mode=mode).encode(), (
                doc.network.name, mode)
    # the sidecar named by path, as written next to the document or elsewhere
    for sidecar in (tmp_path / "w.bin", tmp_path / "sub" / "w.bin"):
        sidecar.parent.mkdir(exist_ok=True)
        save_document(p, docs[1], weights_mode="sidecar", sidecar_path=sidecar)
        assert p.read_bytes() == document_text(
            p, docs[1], weights_mode="sidecar", sidecar_path=sidecar).encode()


def test_save_inline_peak_memory_is_bounded_by_the_text(tmp_path):
    # a narrow LeNet (27,280 stored values once transformed): the Python
    # objects alive at once while writing stay within 3.5x the bytes written
    spec = NetworkSpec("lenet-narrow", (1, 28, 28), (
        ConvLayer(4, (5, 5)), ActivationLayer("relu"), ConvLayer(4, (2, 2), 2),
        ConvLayer(10, (5, 5)), ActivationLayer("relu"), ConvLayer(10, (2, 2), 2),
        FullyConnectedLayer(100), ActivationLayer("relu"),
    ))
    result = transform_network(init_params(spec, seed=0))
    doc = SpecDocument(
        network=result.network,
        transform=TransformMetadata(source=spec.name, input_map=result.input_map),
    )
    p = tmp_path / "t.json"
    tracemalloc.start()
    try:
        save_document(p, doc, weights_mode="inline")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = p.stat().st_size
    assert written > 500_000
    assert peak <= 3.5 * written, (peak, written)


def _outputs(directory, mode):
    """The files save_document writes for directory / "a.json"."""
    names = ["a.json"] + (["a.weights.bin"] if mode == "sidecar" else [])
    return [directory / name for name in names]


def _long_net():
    # a transformed network of 8,688 stored values: its inline document
    # outgrows a pipe's buffer, and _small_net's files are shorter
    spec = NetworkSpec(
        "long", (2, 12, 12),
        (ConvLayer(6, (2, 2), 2), ActivationLayer("relu"), FullyConnectedLayer(40)),
    )
    return init_params(spec, seed=13)


def _transformed(spec):
    result = transform_network(spec)
    return SpecDocument(
        network=result.network,
        transform=TransformMetadata(source=spec.name, input_map=result.input_map),
    )


@pytest.fixture(scope="module")
def lenet_doc(lenet):
    return _transformed(lenet)


@pytest.mark.parametrize("mode", ["inline", "sidecar"])
def test_shorter_files_written_over_longer_ones_equal_a_fresh_write(tmp_path, mode):
    # the writer opens without truncating, so it must cut the old tail
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    old.mkdir()
    fresh.mkdir()
    save_document(old / "a.json", _transformed(_long_net()), weights_mode=mode)
    for p in _outputs(old, mode):
        p.chmod(0o640)
    before = [p.stat() for p in _outputs(old, mode)]
    short = SpecDocument(network=_small_net(seed=12))
    save_document(old / "a.json", short, weights_mode=mode)
    save_document(fresh / "a.json", short, weights_mode=mode)
    for p, q, st in zip(_outputs(old, mode), _outputs(fresh, mode), before):
        assert p.read_bytes() == q.read_bytes(), p.name
        assert q.stat().st_size < st.st_size, p.name
        # the same file, not a new one under the old name
        assert (p.stat().st_ino, stat.S_IMODE(p.stat().st_mode)) == (st.st_ino, 0o640), p.name


@pytest.mark.parametrize("mode", ["inline", "sidecar"])
def test_a_symlinked_output_is_written_through_the_link(tmp_path, mode):
    real, links, fresh = tmp_path / "real", tmp_path / "links", tmp_path / "fresh"
    for d in (real, links, fresh):
        d.mkdir()
    save_document(real / "a.json", _transformed(_long_net()), weights_mode=mode)
    for p, link in zip(_outputs(real, mode), _outputs(links, mode)):
        link.symlink_to(os.path.join("..", "real", p.name))
    doc = SpecDocument(network=_small_net(seed=15))
    save_document(links / "a.json", doc, weights_mode=mode)
    save_document(fresh / "a.json", doc, weights_mode=mode)
    for p, link, q in zip(_outputs(real, mode), _outputs(links, mode), _outputs(fresh, mode)):
        assert link.is_symlink()
        assert p.read_bytes() == q.read_bytes(), p.name
    assert _networks_equal(load_document(links / "a.json").network, doc.network)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_fifo_receives_the_text_a_regular_file_does(tmp_path):
    # a FIFO can be written but not cut to length, so it is only written
    doc = _transformed(_long_net())
    fifo = tmp_path / "pipe.json"
    os.mkfifo(fifo)
    received = []
    # a daemon, so that a writer that never opens the FIFO fails the test
    # rather than hanging it
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    save_document(fifo, doc, weights_mode="inline")
    reader.join(timeout=60)
    assert not reader.is_alive()
    save_document(tmp_path / "file.json", doc, weights_mode="inline")
    text = (tmp_path / "file.json").read_bytes()
    assert len(text) > 1 << 16  # more than a pipe buffer holds
    assert received == [text]


@pytest.mark.parametrize("mode, written, bound", [
    ("sidecar", "t.weights.bin", 1.25),
    ("inline", "t.json", 1.15),
])
def test_save_peak_memory_of_transformed_lenet(tmp_path, lenet_doc, mode, written, bound):
    # the writer streams: the sidecar blob is made once, in its final dtype,
    # and the inline text goes out in parts, never joined into one string
    tracemalloc.start()
    try:
        save_document(tmp_path / "t.json", lenet_doc, weights_mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / written).stat().st_size
    assert size > 4_000_000
    assert peak <= bound * size, (peak, size)


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit on this platform")
@pytest.mark.parametrize("mode, stopped", [
    ("sidecar", "a.weights.bin"),
    ("inline", "a.json"),
])
def test_a_write_that_stops_part_way_leaves_no_document_to_load(tmp_path, mode, stopped):
    # The new weights are the old ones in reverse, so the new files are as
    # long as the old ones, and a file size limit stops the write over them
    # half way.  The writer does not truncate on opening, so unless it cuts
    # the file after the failure, the new head over the old tail would keep
    # its length and the old document would load it.
    spec = _small_net(seed=1)
    flipped = replace(spec, layers=tuple(
        replace(layer, weights=np.flip(layer.weights).copy())
        if getattr(layer, "weights", None) is not None else layer
        for layer in spec.layers
    ))
    old, new = tmp_path / "old", tmp_path / "new"
    for d, net in ((old, spec), (new, flipped)):
        d.mkdir()
        save_document(d / "a.json", SpecDocument(network=net), weights_mode=mode)
    assert (old / stopped).stat().st_size == (new / stopped).stat().st_size
    limit = (old / stopped).stat().st_size // 2
    child = f"""
import resource, signal, sys
from destride import load_document, save_document
doc = load_document(sys.argv[1])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
save_document(sys.argv[2], doc, weights_mode="{mode}")
"""
    done = subprocess.run(
        [sys.executable, "-c", child, str(new / "a.json"), str(old / "a.json")],
        env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "File too large" in done.stderr, done.stderr
    assert (old / stopped).stat().st_size == 0
    with pytest.raises(SpecFormatError):
        load_document(old / "a.json")
