import importlib
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
import zlib
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


# every object kind of a document, as (base document, path to the object,
# its fields); the bases are _small_net's transformed document with inline
# and with sidecar weights
OBJECTS = {
    "document": ("inline", (), ("schema_version", "network", "weights", "transform")),
    "network": ("inline", ("network",), ("name", "provenance", "input_shape", "layers")),
    "conv": ("inline", ("network", "layers", 0), ("kind", "channels_out", "kernel", "stride")),
    "activation": ("inline", ("network", "layers", 1), ("kind", "function")),
    "fully_connected": ("inline", ("network", "layers", 2), ("kind", "units")),
    "inline": ("inline", ("weights",), ("mode", "arrays")),
    "arrays": ("inline", ("weights", "arrays"), ("0", "2")),
    "sidecar": ("sidecar", ("weights",), ("mode", "path", "lengths")),
    "lengths": ("sidecar", ("weights", "lengths"), ("0", "2")),
    "transform": ("inline", ("transform",), ("source", "input_map")),
    "input_map": ("inline", ("transform", "input_map"), ("stride", "entries")),
}
SPOILERS = {"float": 1.5, "bool": True, "string": "x", "null": None, "nested": [[1]]}


def _spoilt_documents(tmp_path):
    """(case, document text) for every field of every object kind given a
    float, a bool, a string, null or a nested list, left out or repeated,
    and for every object kind given one key more."""
    spec = _small_net(seed=1)
    bases = {}
    for mode in ("inline", "sidecar"):
        save_document(tmp_path / f"{mode}.json", _transformed(spec), weights_mode=mode)
        bases[mode] = (tmp_path / f"{mode}.json").read_text()
    for kind, (mode, where, fields) in OBJECTS.items():
        for field in fields + ("extra",):
            for spoil in (*SPOILERS, "missing", "repeated") if field != "extra" else ("extra",):
                raw = json.loads(bases[mode])
                obj = raw
                for step in where:
                    obj = obj[step]
                if spoil in SPOILERS:
                    obj[field] = SPOILERS[spoil]
                elif spoil == "missing":
                    del obj[field]
                elif spoil == "extra":
                    obj["extra"] = 0
                value = obj.get(field)
                if spoil == "repeated":
                    obj[field] = "\0"
                text = json.dumps(raw)
                if spoil == "repeated":
                    key, val = json.dumps(field), json.dumps(value)
                    text = text.replace(f'{key}: "\\u0000"', f"{key}: {val}, {key}: {val}")
                yield f"{kind}.{field}" + ("" if spoil == "extra" else f":{spoil}"), text


def _rejections(tmp_path):
    """case -> what load_document says of its document: None when it
    loads, else its message (prefixed by its type unless it is a
    SpecFormatError), with tmp_path spelled {tmp}."""
    said = {}
    p = tmp_path / "x.json"
    for case, text in _spoilt_documents(tmp_path):
        p.write_text(text)
        try:
            load_document(p)
            said[case] = None
        except Exception as e:
            text = str(e) if type(e) is SpecFormatError else f"{type(e).__name__}: {e}"
            said[case] = text.replace(str(tmp_path), "{tmp}")
    return said


# what load_document says of each spoilt document, None where it loads
REJECTIONS = {
    'document.schema_version:float': "{tmp}/x.json: field 'schema_version': expected an integer, got 1.5",
    'document.schema_version:bool': "{tmp}/x.json: field 'schema_version': expected an integer, got True",
    'document.schema_version:string': "{tmp}/x.json: field 'schema_version': expected an integer, got 'x'",
    'document.schema_version:null': "{tmp}/x.json: field 'schema_version': expected an integer, got None",
    'document.schema_version:nested': "{tmp}/x.json: field 'schema_version': expected an integer, got [[1]]",
    'document.schema_version:missing': "{tmp}/x.json: missing field 'schema_version'",
    'document.schema_version:repeated': "key 'schema_version' appears twice in one object",
    'document.network:float': "{tmp}/x.json: field 'network' has wrong type float",
    'document.network:bool': "{tmp}/x.json: field 'network' has wrong type bool",
    'document.network:string': "{tmp}/x.json: field 'network' has wrong type str",
    'document.network:null': "{tmp}/x.json: field 'network' has wrong type NoneType",
    'document.network:nested': "{tmp}/x.json: field 'network' has wrong type list",
    'document.network:missing': "{tmp}/x.json: missing field 'network'",
    'document.network:repeated': "key 'network' appears twice in one object",
    'document.weights:float': "{tmp}/x.json: field 'weights' has wrong type float",
    'document.weights:bool': "{tmp}/x.json: field 'weights' has wrong type bool",
    'document.weights:string': "{tmp}/x.json: field 'weights' has wrong type str",
    'document.weights:null': "{tmp}/x.json: field 'weights' has wrong type NoneType",
    'document.weights:nested': "{tmp}/x.json: field 'weights' has wrong type list",
    'document.weights:missing': None,
    'document.weights:repeated': "key 'weights' appears twice in one object",
    'document.transform:float': "{tmp}/x.json: field 'transform' has wrong type float",
    'document.transform:bool': "{tmp}/x.json: field 'transform' has wrong type bool",
    'document.transform:string': "{tmp}/x.json: field 'transform' has wrong type str",
    'document.transform:null': "{tmp}/x.json: field 'transform' has wrong type NoneType",
    'document.transform:nested': "{tmp}/x.json: field 'transform' has wrong type list",
    'document.transform:missing': None,
    'document.transform:repeated': "key 'transform' appears twice in one object",
    'document.extra': "{tmp}/x.json: unknown field 'extra'",
    'network.name:float': "network: field 'name' has wrong type float",
    'network.name:bool': "network: field 'name' has wrong type bool",
    'network.name:string': None,
    'network.name:null': "network: field 'name' has wrong type NoneType",
    'network.name:nested': "network: field 'name' has wrong type list",
    'network.name:missing': "network: missing field 'name'",
    'network.name:repeated': "key 'name' appears twice in one object",
    'network.provenance:float': "network: field 'provenance' has wrong type float",
    'network.provenance:bool': "network: field 'provenance' has wrong type bool",
    'network.provenance:string': None,
    'network.provenance:null': "network: field 'provenance' has wrong type NoneType",
    'network.provenance:nested': "network: field 'provenance' has wrong type list",
    'network.provenance:missing': None,
    'network.provenance:repeated': "key 'provenance' appears twice in one object",
    'network.input_shape:float': "network: field 'input_shape' has wrong type float",
    'network.input_shape:bool': "network: field 'input_shape' has wrong type bool",
    'network.input_shape:string': "network: field 'input_shape' has wrong type str",
    'network.input_shape:null': "network: field 'input_shape' has wrong type NoneType",
    'network.input_shape:nested': 'network: input_shape: expected an integer, got [1]',
    'network.input_shape:missing': "network: missing field 'input_shape'",
    'network.input_shape:repeated': "key 'input_shape' appears twice in one object",
    'network.layers:float': "network: field 'layers' has wrong type float",
    'network.layers:bool': "network: field 'layers' has wrong type bool",
    'network.layers:string': "network: field 'layers' has wrong type str",
    'network.layers:null': "network: field 'layers' has wrong type NoneType",
    'network.layers:nested': "layer 0: missing field 'kind'",
    'network.layers:missing': "network: missing field 'layers'",
    'network.layers:repeated': "key 'layers' appears twice in one object",
    'network.extra': "network: unknown field 'extra'",
    'conv.kind:float': "layer 0: field 'kind' has wrong type float",
    'conv.kind:bool': "layer 0: field 'kind' has wrong type bool",
    'conv.kind:string': "layer 0: unknown kind 'x'",
    'conv.kind:null': "layer 0: field 'kind' has wrong type NoneType",
    'conv.kind:nested': "layer 0: field 'kind' has wrong type list",
    'conv.kind:missing': "layer 0: missing field 'kind'",
    'conv.kind:repeated': "key 'kind' appears twice in one object",
    'conv.channels_out:float': "layer 0: field 'channels_out': expected an integer, got 1.5",
    'conv.channels_out:bool': "layer 0: field 'channels_out': expected an integer, got True",
    'conv.channels_out:string': "layer 0: field 'channels_out': expected an integer, got 'x'",
    'conv.channels_out:null': "layer 0: field 'channels_out': expected an integer, got None",
    'conv.channels_out:nested': "layer 0: field 'channels_out': expected an integer, got [[1]]",
    'conv.channels_out:missing': "layer 0: missing field 'channels_out'",
    'conv.channels_out:repeated': "key 'channels_out' appears twice in one object",
    'conv.kernel:float': "layer 0: field 'kernel' has wrong type float",
    'conv.kernel:bool': "layer 0: field 'kernel' has wrong type bool",
    'conv.kernel:string': "layer 0: field 'kernel' has wrong type str",
    'conv.kernel:null': "layer 0: field 'kernel' has wrong type NoneType",
    'conv.kernel:nested': 'layer 0: kernel: expected an integer, got [1]',
    'conv.kernel:missing': "layer 0: missing field 'kernel'",
    'conv.kernel:repeated': "key 'kernel' appears twice in one object",
    'conv.stride:float': 'layer 0: stride: expected an integer, got 1.5',
    'conv.stride:bool': 'layer 0: stride: expected an integer, got True',
    'conv.stride:string': "layer 0: stride: expected an integer, got 'x'",
    'conv.stride:null': 'layer 0: stride: expected an integer, got None',
    'conv.stride:nested': 'layer 0: stride: expected an integer, got [[1]]',
    'conv.stride:missing': None,
    'conv.stride:repeated': "key 'stride' appears twice in one object",
    'conv.extra': "layer 0 (conv): unknown field 'extra'",
    'activation.kind:float': "layer 1: field 'kind' has wrong type float",
    'activation.kind:bool': "layer 1: field 'kind' has wrong type bool",
    'activation.kind:string': "layer 1: unknown kind 'x'",
    'activation.kind:null': "layer 1: field 'kind' has wrong type NoneType",
    'activation.kind:nested': "layer 1: field 'kind' has wrong type list",
    'activation.kind:missing': "layer 1: missing field 'kind'",
    'activation.kind:repeated': "key 'kind' appears twice in one object",
    'activation.function:float': "layer 1: field 'function' has wrong type float",
    'activation.function:bool': "layer 1: field 'function' has wrong type bool",
    'activation.function:string': "network: unknown activation 'x', known: ['identity', 'relu']",
    'activation.function:null': "layer 1: field 'function' has wrong type NoneType",
    'activation.function:nested': "layer 1: field 'function' has wrong type list",
    'activation.function:missing': "layer 1: missing field 'function'",
    'activation.function:repeated': "key 'function' appears twice in one object",
    'activation.extra': "layer 1 (activation): unknown field 'extra'",
    'fully_connected.kind:float': "layer 2: field 'kind' has wrong type float",
    'fully_connected.kind:bool': "layer 2: field 'kind' has wrong type bool",
    'fully_connected.kind:string': "layer 2: unknown kind 'x'",
    'fully_connected.kind:null': "layer 2: field 'kind' has wrong type NoneType",
    'fully_connected.kind:nested': "layer 2: field 'kind' has wrong type list",
    'fully_connected.kind:missing': "layer 2: missing field 'kind'",
    'fully_connected.kind:repeated': "key 'kind' appears twice in one object",
    'fully_connected.units:float': "layer 2: field 'units': expected an integer, got 1.5",
    'fully_connected.units:bool': "layer 2: field 'units': expected an integer, got True",
    'fully_connected.units:string': "layer 2: field 'units': expected an integer, got 'x'",
    'fully_connected.units:null': "layer 2: field 'units': expected an integer, got None",
    'fully_connected.units:nested': "layer 2: field 'units': expected an integer, got [[1]]",
    'fully_connected.units:missing': "layer 2: missing field 'units'",
    'fully_connected.units:repeated': "key 'units' appears twice in one object",
    'fully_connected.extra': "layer 2 (fully_connected): unknown field 'extra'",
    'inline.mode:float': "weights: field 'mode' has wrong type float",
    'inline.mode:bool': "weights: field 'mode' has wrong type bool",
    'inline.mode:string': "weights: unknown mode 'x'",
    'inline.mode:null': "weights: field 'mode' has wrong type NoneType",
    'inline.mode:nested': "weights: field 'mode' has wrong type list",
    'inline.mode:missing': "weights: missing field 'mode'",
    'inline.mode:repeated': "key 'mode' appears twice in one object",
    'inline.arrays:float': "weights: field 'arrays' has wrong type float",
    'inline.arrays:bool': "weights: field 'arrays' has wrong type bool",
    'inline.arrays:string': "weights: field 'arrays' has wrong type str",
    'inline.arrays:null': "weights: field 'arrays' has wrong type NoneType",
    'inline.arrays:nested': "weights: field 'arrays' has wrong type list",
    'inline.arrays:missing': "weights: missing field 'arrays'",
    'inline.arrays:repeated': "key 'arrays' appears twice in one object",
    'inline.extra': "weights (inline): unknown field 'extra'",
    'arrays.0:float': 'weights: layer 0 must be a flat list of numbers',
    'arrays.0:bool': 'weights: layer 0 must be a flat list of numbers',
    'arrays.0:string': 'weights: layer 0 must be a flat list of numbers',
    'arrays.0:null': 'weights: layer 0 must be a flat list of numbers',
    'arrays.0:nested': 'weights: layer 0 must be a flat list of numbers',
    'arrays.0:missing': None,
    'arrays.0:repeated': "key '0' appears twice in one object",
    'arrays.2:float': 'weights: layer 2 must be a flat list of numbers',
    'arrays.2:bool': 'weights: layer 2 must be a flat list of numbers',
    'arrays.2:string': 'weights: layer 2 must be a flat list of numbers',
    'arrays.2:null': 'weights: layer 2 must be a flat list of numbers',
    'arrays.2:nested': 'weights: layer 2 must be a flat list of numbers',
    'arrays.2:missing': None,
    'arrays.2:repeated': "key '2' appears twice in one object",
    'arrays.extra': "weights: bad layer index 'extra'",
    'sidecar.mode:float': "weights: field 'mode' has wrong type float",
    'sidecar.mode:bool': "weights: field 'mode' has wrong type bool",
    'sidecar.mode:string': "weights: unknown mode 'x'",
    'sidecar.mode:null': "weights: field 'mode' has wrong type NoneType",
    'sidecar.mode:nested': "weights: field 'mode' has wrong type list",
    'sidecar.mode:missing': "weights: missing field 'mode'",
    'sidecar.mode:repeated': "key 'mode' appears twice in one object",
    'sidecar.path:float': "weights: field 'path' has wrong type float",
    'sidecar.path:bool': "weights: field 'path' has wrong type bool",
    'sidecar.path:string': "FileNotFoundError: [Errno 2] No such file or directory: '{tmp}/x'",
    'sidecar.path:null': "weights: field 'path' has wrong type NoneType",
    'sidecar.path:nested': "weights: field 'path' has wrong type list",
    'sidecar.path:missing': "weights: missing field 'path'",
    'sidecar.path:repeated': "key 'path' appears twice in one object",
    'sidecar.lengths:float': "weights: field 'lengths' has wrong type float",
    'sidecar.lengths:bool': "weights: field 'lengths' has wrong type bool",
    'sidecar.lengths:string': "weights: field 'lengths' has wrong type str",
    'sidecar.lengths:null': "weights: field 'lengths' has wrong type NoneType",
    'sidecar.lengths:nested': "weights: field 'lengths' has wrong type list",
    'sidecar.lengths:missing': "weights: missing field 'lengths'",
    'sidecar.lengths:repeated': "key 'lengths' appears twice in one object",
    'sidecar.extra': "weights (sidecar): unknown field 'extra'",
    'lengths.0:float': 'weights: lengths: expected an integer, got 1.5',
    'lengths.0:bool': 'weights: lengths: expected an integer, got True',
    'lengths.0:string': "weights: lengths: expected an integer, got 'x'",
    'lengths.0:null': 'weights: lengths: expected an integer, got None',
    'lengths.0:nested': 'weights: lengths: expected an integer, got [[1]]',
    'lengths.0:missing': 'weights: sidecar holds 1056 bytes, lengths declare 108 values (864 bytes)',
    'lengths.0:repeated': "key '0' appears twice in one object",
    'lengths.2:float': 'weights: lengths: expected an integer, got 1.5',
    'lengths.2:bool': 'weights: lengths: expected an integer, got True',
    'lengths.2:string': "weights: lengths: expected an integer, got 'x'",
    'lengths.2:null': 'weights: lengths: expected an integer, got None',
    'lengths.2:nested': 'weights: lengths: expected an integer, got [[1]]',
    'lengths.2:missing': 'weights: sidecar holds 1056 bytes, lengths declare 24 values (192 bytes)',
    'lengths.2:repeated': "key '2' appears twice in one object",
    'lengths.extra': "weights: bad layer index 'extra'",
    'transform.source:float': "transform: field 'source' has wrong type float",
    'transform.source:bool': "transform: field 'source' has wrong type bool",
    'transform.source:string': None,
    'transform.source:null': "transform: field 'source' has wrong type NoneType",
    'transform.source:nested': "transform: field 'source' has wrong type list",
    'transform.source:missing': "transform: missing field 'source'",
    'transform.source:repeated': "key 'source' appears twice in one object",
    'transform.input_map:float': "transform: field 'input_map' has wrong type float",
    'transform.input_map:bool': "transform: field 'input_map' has wrong type bool",
    'transform.input_map:string': "transform: field 'input_map' has wrong type str",
    'transform.input_map:null': "transform: field 'input_map' has wrong type NoneType",
    'transform.input_map:nested': "transform: field 'input_map' has wrong type list",
    'transform.input_map:missing': "transform: missing field 'input_map'",
    'transform.input_map:repeated': "key 'input_map' appears twice in one object",
    'transform.extra': "transform: unknown field 'extra'",
    'input_map.stride:float': "transform.input_map: field 'stride': expected an integer, got 1.5",
    'input_map.stride:bool': "transform.input_map: field 'stride': expected an integer, got True",
    'input_map.stride:string': "transform.input_map: field 'stride': expected an integer, got 'x'",
    'input_map.stride:null': "transform.input_map: field 'stride': expected an integer, got None",
    'input_map.stride:nested': "transform.input_map: field 'stride': expected an integer, got [[1]]",
    'input_map.stride:missing': "transform.input_map: missing field 'stride'",
    'input_map.stride:repeated': "key 'stride' appears twice in one object",
    'input_map.entries:float': "transform.input_map: field 'entries' has wrong type float",
    'input_map.entries:bool': "transform.input_map: field 'entries' has wrong type bool",
    'input_map.entries:string': "transform.input_map: field 'entries' has wrong type str",
    'input_map.entries:null': "transform.input_map: field 'entries' has wrong type NoneType",
    'input_map.entries:nested': 'transform: entries must cover every (channel, p, q) exactly once',
    'input_map.entries:missing': "transform.input_map: missing field 'entries'",
    'input_map.entries:repeated': "key 'entries' appears twice in one object",
    'input_map.extra': "transform.input_map: unknown field 'extra'",
}


def test_every_field_of_every_object_is_refused_with_its_message(tmp_path):
    # a float, a bool, a string, null, a nested list, a missing key and a
    # repeated key in each field, and one key more in each object
    assert _rejections(tmp_path) == REJECTIONS


def test_sidecar_crc32_is_an_optional_integer_that_must_match(tmp_path):
    # the table above spoils the keys every document had before the writer
    # recorded a checksum; this is the one it added
    p = tmp_path / "a.json"
    save_document(p, _transformed(_small_net(seed=1)), weights_mode="sidecar")
    text = p.read_text()
    crc = json.loads(text)["weights"]["crc32"]
    assert crc == zlib.crc32((tmp_path / "a.weights.bin").read_bytes())
    field = f'"crc32": {crc}'
    cases = [
        (json.dumps(1.5), "weights: field 'crc32': expected an integer, got 1.5"),
        (json.dumps(True), "weights: field 'crc32': expected an integer, got True"),
        (json.dumps("x"), "weights: field 'crc32': expected an integer, got 'x'"),
        (json.dumps(None), "weights: field 'crc32': expected an integer, got None"),
        (json.dumps([[1]]), "weights: field 'crc32': expected an integer, got [[1]]"),
        (f"{crc}, {field}", "key 'crc32' appears twice in one object"),
        (str(crc ^ 1), f"weights: sidecar checksum mismatch: its bytes have crc32 {crc}, "
                       f"the document records {crc ^ 1}"),
    ]
    for value, message in cases:
        p.write_text(text.replace(field, f'"crc32": {value}'))
        with pytest.raises(SpecFormatError) as e:
            load_document(p)
        assert str(e.value) == message
    # left out, as benchmarks/reference.py leaves it: loaded unchecked
    p.write_text(text.replace(f',\n  {field}', ""))
    assert "crc32" not in p.read_text()
    assert load_document(p).weights_mode == "sidecar"


@pytest.mark.parametrize("mode", ["inline", "sidecar"])
def test_loaded_weights_are_writable_aligned_and_bit_identical(tmp_path, mode):
    spec = _small_net(seed=2)
    save_document(tmp_path / "a.json", SpecDocument(network=spec), weights_mode=mode)
    loaded = load_document(tmp_path / "a.json").network
    for want, got in zip(spec.layers, loaded.layers):
        if getattr(want, "weights", None) is None:
            continue
        assert got.weights.flags.writeable and got.weights.flags.aligned
        assert got.weights.dtype == np.float64
        assert got.weights.tobytes() == want.weights.tobytes()


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
    # same lengths, different bytes: refused by the checksum the writer
    # records; a document without one, as benchmarks/reference.py writes,
    # loads them, and the values differ (verify's job)
    spec = _small_net(seed=10)
    p = tmp_path / "a.json"
    save_document(p, SpecDocument(network=spec), weights_mode="sidecar")
    blob = np.fromfile(tmp_path / "a.weights.bin", dtype="<f8")
    blob[0] += 1.0
    blob.tofile(tmp_path / "a.weights.bin")
    with pytest.raises(SpecFormatError, match="^weights: sidecar checksum mismatch: "):
        load_document(p)
    raw = json.loads(p.read_text())
    del raw["weights"]["crc32"]
    p.write_text(json.dumps(raw))
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


def _old_and_flipped(tmp_path, mode):
    """Directories old and new, each holding a.json saved in mode: old from
    _small_net(seed=1), new from the same net with every weight array
    reversed, so that the new files are as long as the old ones."""
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
    return old, new


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
    old, new = _old_and_flipped(tmp_path, mode)
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


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit on this platform")
def test_a_sidecar_write_killed_part_way_is_refused_on_load(tmp_path):
    # The kernel kills the writer half way through the sidecar, as SIGKILL
    # or the OOM killer would: SIGXFSZ at its default action (Python starts
    # with it ignored), so no handler runs and nothing cuts the file.  The
    # old document is left beside new head over old tail, of the length it
    # records, and must not load it.
    old, new = _old_and_flipped(tmp_path, "sidecar")
    sidecar = old / "a.weights.bin"
    before = sidecar.read_bytes()
    child = f"""
import resource, signal, sys
from destride import load_document, save_document
doc = load_document(sys.argv[1])
signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
resource.setrlimit(resource.RLIMIT_FSIZE, ({len(before) // 2}, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
save_document(sys.argv[2], doc, weights_mode="sidecar")
"""
    done = subprocess.run(
        [sys.executable, "-c", child, str(new / "a.json"), str(old / "a.json")],
        env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == -signal.SIGXFSZ, done.stderr
    after = sidecar.read_bytes()
    assert len(after) == len(before) and after != before
    assert after[len(before) // 2:] == before[len(before) // 2:]
    with pytest.raises(SpecFormatError, match="checksum"):
        load_document(old / "a.json")


def test_a_new_sidecar_beside_the_old_document_is_refused_on_load(tmp_path):
    # what a writer killed between the sidecar and the document leaves: the
    # new weights, of the length the old document records
    old, new = _old_and_flipped(tmp_path, "sidecar")
    (old / "a.weights.bin").write_bytes((new / "a.weights.bin").read_bytes())
    with pytest.raises(SpecFormatError, match="checksum"):
        load_document(old / "a.json")
