import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from destride import (
    ConvLayer,
    FullyConnectedLayer,
    NetworkSpec,
    SpecDocument,
    init_params,
    load_document,
    save_document,
)
from destride.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    # a small weighted original (sidecar mode) and its CLI-produced transform
    d = tmp_path_factory.mktemp("cli-pair")
    spec = init_params(
        NetworkSpec(
            "tiny",
            (2, 6, 6),
            (ConvLayer(3, (2, 2), 2), FullyConnectedLayer(4)),
        ),
        seed=21,
    )
    save_document(d / "orig.json", SpecDocument(network=spec), weights_mode="sidecar")
    assert main(["transform", str(d / "orig.json"), str(d / "trans.json")]) == 0
    return d


def test_transform_prints_golden_lenet_table(tmp_path, capsys):
    rc = main(["transform", str(FIXTURES / "lenet.json"), str(tmp_path / "out.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "lenet-strided-destrided: input 16x7x7" in out
    for line in ("conv 320 @ 2x2", "conv 80 @ 1x1", "conv 200 @ 3x3", "conv 50 @ 1x1"):
        assert line in out
    for shape in ("320x6x6", "80x6x6", "200x4x4", "50x4x4"):
        assert f"-> {shape}" in out
    doc = load_document(tmp_path / "out.json")
    assert doc.transform is not None
    assert doc.transform.source == "lenet-strided"
    assert "flatten_permutation" not in json.loads((tmp_path / "out.json").read_text())["transform"]


def test_transform_warns_when_nothing_to_eliminate(tmp_path, capsys):
    spec = NetworkSpec(
        "already-flat", (1, 5, 5), (ConvLayer(2, (2, 2), 1), FullyConnectedLayer(3))
    )
    save_document(tmp_path / "in.json", SpecDocument(network=spec))
    rc = main(["transform", str(tmp_path / "in.json"), str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc == 0
    assert "nothing to eliminate" in err
    out = load_document(tmp_path / "out.json").network
    assert out.input_shape == spec.input_shape
    assert [(l.channels_out, l.kernel) for l in out.layers if isinstance(l, ConvLayer)] == [
        (2, (2, 2))
    ]


def test_transform_divisibility_error_exit3(tmp_path, capsys):
    rc = main(["transform", str(FIXTURES / "indivisible.json"), str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "layer 0" in err
    assert not (tmp_path / "o.json").exists()


def test_transform_missing_input_exit4(tmp_path, capsys):
    rc = main(["transform", str(tmp_path / "nope.json"), str(tmp_path / "o.json")])
    assert rc == 4
    assert "error" in capsys.readouterr().err


def test_transform_invalid_document_exit2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    bad = [p.read_bytes(), b'{"schema_version": 1, "name": "\xff"}']  # the second is not UTF-8
    for field, value in (("stride", 2.0), ("channels_out", True), ("kernel", [5.7, 5])):
        raw = json.loads((FIXTURES / "lenet.json").read_text())
        raw["network"]["layers"][2][field] = value  # integers only, never coerced
        bad.append(json.dumps(raw).encode())
    raw = json.loads((FIXTURES / "lenet.json").read_text())
    layer = raw["network"]["layers"][2]
    layer["strides"] = layer.pop("stride")  # unknown keys are not ignored
    bad.append(json.dumps(raw).encode())
    for text in bad:
        p.write_bytes(text)
        rc = main(["transform", str(p), str(tmp_path / "o.json")])
        assert rc == 2, text[:80]
        assert "error" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_verify_pass(pair, capsys):
    rc = main(["verify", str(pair / "orig.json"), str(pair / "trans.json"),
               "--trials", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "5 trials" in out


def test_verify_is_deterministic_given_seed(pair, capsys):
    args = ["verify", str(pair / "orig.json"), str(pair / "trans.json"),
            "--trials", "4", "--seed", "17"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_verify_json_output(pair, capsys):
    rc = main(["verify", str(pair / "orig.json"), str(pair / "trans.json"),
               "--trials", "3", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["trials"] == 3
    assert len(report["deviations"]) == 3
    assert report["max_abs_dev"] <= report["tolerance"]


def test_verify_corrupted_weights_fails(pair, tmp_path, capsys):
    for name in ("orig.json", "orig.weights.bin", "trans.json", "trans.weights.bin"):
        shutil.copy(pair / name, tmp_path / name)
    blob = np.fromfile(tmp_path / "trans.weights.bin", dtype="<f8")
    blob[5] += 0.25
    blob.tofile(tmp_path / "trans.weights.bin")
    rc = main(["verify", str(tmp_path / "orig.json"), str(tmp_path / "trans.json"),
               "--trials", "5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    deviation = float(out.split("= ")[1].split()[0])
    assert deviation > 0.0


def test_verify_trials_zero_is_usage_error(pair, capsys):
    rc = main(["verify", str(pair / "orig.json"), str(pair / "trans.json"),
               "--trials", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "positive integer" in err


def test_verify_rejects_weightless_documents(tmp_path, capsys):
    trans = tmp_path / "t.json"
    assert main(["transform", str(FIXTURES / "lenet.json"), str(trans)]) == 0
    capsys.readouterr()
    rc = main(["verify", str(FIXTURES / "lenet.json"), str(trans)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "carries no weights" in err


def _with_flatten_permutation(pair, tmp_path, perm):
    # a transformed document as earlier versions wrote it
    raw = json.loads((pair / "trans.json").read_text())
    raw["transform"]["flatten_permutation"] = perm
    p = tmp_path / "trans.json"
    p.write_text(json.dumps(raw))
    shutil.copy(pair / "trans.weights.bin", tmp_path / "trans.weights.bin")
    return p


def test_verify_reads_earlier_identity_flatten_permutation(pair, tmp_path, capsys):
    feats = 3 * 3 * 3  # conv 3 @ 2x2 stride 2 over 6x6
    p = _with_flatten_permutation(pair, tmp_path, list(range(feats)))
    assert load_document(p).transform.source == "tiny"
    rc = main(["verify", str(pair / "orig.json"), str(p), "--trials", "5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_rejects_non_identity_flatten_permutation(pair, tmp_path, capsys):
    p = _with_flatten_permutation(pair, tmp_path, list(reversed(range(27))))
    rc = main(["verify", str(pair / "orig.json"), str(p)])
    assert rc == 2
    assert "identity" in capsys.readouterr().err


def test_verify_requires_transform_metadata(pair, capsys):
    rc = main(["verify", str(pair / "orig.json"), str(pair / "orig.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "transform metadata" in err


def test_verify_rejects_unlinked_pair(pair, tmp_path, capsys):
    raw = json.loads((pair / "trans.json").read_text())
    raw["transform"]["source"] = "someone-else"
    p = tmp_path / "trans.json"
    p.write_text(json.dumps(raw))
    shutil.copy(pair / "trans.weights.bin", tmp_path / "trans.weights.bin")
    rc = main(["verify", str(pair / "orig.json"), str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "does not match" in err


def test_report_human_readable(tmp_path, capsys):
    orig = FIXTURES / "lenet.json"
    trans = tmp_path / "t.json"
    assert main(["transform", str(orig), str(trans)]) == 0
    capsys.readouterr()
    rc = main(["report", str(orig), str(trans)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "500     20480     12480       500          16" in out
    assert "totals: 437100 original parameters, 600080 stored values" in out


def test_report_json_round_trips(tmp_path, capsys):
    orig = FIXTURES / "lenet.json"
    trans = tmp_path / "t.json"
    assert main(["transform", str(orig), str(trans)]) == 0
    capsys.readouterr()
    rc = main(["report", str(orig), str(trans), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = json.loads(out)
    assert json.loads(json.dumps(rows)) == rows
    conv_rows = [r for r in rows if r["kind"] == "conv"]
    assert [r["replication"] for r in conv_rows] == [16, 4, 4, 1]
    assert all(r["distinct_sources"] == r["original_count"] for r in rows)


def _edited_lenet_transform(tmp_path, edit):
    trans = tmp_path / "t.json"
    assert main(["transform", str(FIXTURES / "lenet.json"), str(trans)]) == 0
    raw = json.loads(trans.read_text())
    edit(raw["network"]["layers"])
    trans.write_text(json.dumps(raw))
    return trans


def test_report_rejects_transformed_architecture_mismatch(tmp_path, capsys):
    def edit(layers):
        layers[3] = {"kind": "conv", "channels_out": 7, "kernel": [1, 1], "stride": 1}

    trans = _edited_lenet_transform(tmp_path, edit)
    capsys.readouterr()
    rc = main(["report", str(FIXTURES / "lenet.json"), str(trans)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "layer 3" in captured.err
    assert "totals" not in captured.out


def test_report_rejects_transformed_layer_count_mismatch(tmp_path, capsys):
    def edit(layers):
        del layers[5:]

    trans = _edited_lenet_transform(tmp_path, edit)
    capsys.readouterr()
    rc = main(["report", str(FIXTURES / "lenet.json"), str(trans)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "5 layers" in captured.err
    assert "totals" not in captured.out


def test_report_stride1_pair_all_ratios_one(tmp_path, capsys):
    spec = NetworkSpec(
        "flat", (1, 5, 5), (ConvLayer(2, (3, 3), 1), FullyConnectedLayer(2))
    )
    save_document(tmp_path / "o.json", SpecDocument(network=spec))
    assert main(["transform", str(tmp_path / "o.json"), str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "o.json"), str(tmp_path / "t.json"), "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert all(r["replication"] == 1 for r in rows)


def test_selftest_all_pass(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "8/8 properties passed" in out
    assert out.count("PASS") == 8


def test_selftest_property_filter(capsys):
    rc = main(["selftest", "--property", "sampled-conv-identity"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1/1 properties passed" in out
    assert "sampled-conv-identity" in out


def test_selftest_seed_reproducible(capsys):
    args = ["selftest", "--seed", "5", "--property", "grid-partition"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_selftest_unknown_property_is_usage_error(capsys):
    rc = main(["selftest", "--property", "no-such-check"])
    assert rc == 2
    assert "invalid choice" in capsys.readouterr().err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
