import ast
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
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
    init_params,
    load_document,
    save_document,
    transform_network,
)
from destride import cli
from destride.cli import main
from test_transform import _random_net

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


def test_transform_geometry_error_exit3(tmp_path, capsys):
    # (4 - 3) % 2 != 0: the layer walk itself rejects the conv
    raw = {
        "schema_version": 1,
        "network": {"name": "g", "input_shape": [1, 4, 4], "layers": [
            {"kind": "conv", "channels_out": 2, "kernel": [3, 3], "stride": 2},
            {"kind": "fully_connected", "units": 3},
        ]},
    }
    p = tmp_path / "g.json"
    p.write_text(json.dumps(raw))
    rc = main(["transform", str(p), str(tmp_path / "o.json")])
    assert rc == 3
    assert "layer 0" in capsys.readouterr().err
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
    raw = json.loads((FIXTURES / "lenet.json").read_text())
    raw["weigths"] = {"mode": "inline", "arrays": {}}  # nor at the top level
    bad.append(json.dumps(raw).encode())
    # no object repeats a key
    text = (FIXTURES / "lenet.json").read_text()
    bad.append(text.replace('"stride": 2}', '"stride": 2, "stride": 1}').encode())
    # earlier versions' dense input_permutation, whatever it holds
    for perm in (list(range(799)) + [800], [-1] + list(range(799)), list(range(799))):
        raw = json.loads((FIXTURES / "lenet.json").read_text())
        raw["network"]["layers"][6]["input_permutation"] = perm
        bad.append(json.dumps(raw).encode())
    # a layer-index key is the canonical str(i): "00" and "+0" alias layer 0
    np.full(500, 0.5).tofile(tmp_path / "w.bin")
    np.full(500 + 1600, 0.5).tofile(tmp_path / "w2.bin")
    for weights in (
        {"mode": "inline", "arrays": {"0": [0.5] * 500, "00": [0.25] * 500}},
        {"mode": "inline", "arrays": {"+0": [0.5] * 500}},
        {"mode": "sidecar", "path": "w.bin", "lengths": {" 0": 500}},
        # sidecar lengths are counts: these add up to the blob's size, and
        # slicing with a negative end would give layers 0 and 2 their sizes
        {"mode": "sidecar", "path": "w2.bin", "lengths": {"0": -1600, "2": 3700}},
    ):
        raw = json.loads((FIXTURES / "lenet.json").read_text())
        raw["weights"] = weights
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
    verify = ["verify", str(tmp_path / "orig.json"), str(tmp_path / "trans.json"),
              "--trials", "5"]
    # a value changed in the sidecar's bytes no longer matches their checksum
    blob = np.fromfile(tmp_path / "trans.weights.bin", dtype="<f8")
    blob[5] += 0.25
    blob.tofile(tmp_path / "trans.weights.bin")
    assert main(verify) == 2
    assert "checksum" in capsys.readouterr().err
    # the same change saved by the writer, with its checksum: verify fails it
    shutil.copy(pair / "trans.weights.bin", tmp_path / "trans.weights.bin")
    doc = load_document(tmp_path / "trans.json")
    doc.network.layers[0].weights.flat[5] += 0.25
    save_document(tmp_path / "trans.json", doc, weights_mode="sidecar")
    rc = main(verify)
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


def test_seed_must_be_nonnegative(pair, capsys):
    verify = ["verify", str(pair / "orig.json"), str(pair / "trans.json"), "--trials", "2"]
    selftest = ["selftest", "--property", "grid-partition"]
    for args in (verify, selftest):
        assert main(args + ["--seed", "-1"]) == 2
        assert "non-negative integer" in capsys.readouterr().err
        assert main(args + ["--seed", "0"]) == 0
        capsys.readouterr()


def _with_input_map(pair, tmp_path, perm, permute_weights):
    # the transformed pair with its input-map entries reordered by perm, and
    # the first conv's input channels with them when permute_weights is set
    tdoc = load_document(pair / "trans.json")
    imap = tdoc.transform.input_map
    conv, *rest = tdoc.network.layers
    if permute_weights:
        conv = replace(conv, weights=conv.weights[:, perm])
    doc = SpecDocument(
        network=replace(tdoc.network, layers=(conv, *rest)),
        transform=replace(tdoc.transform,
                          input_map=ChannelMap(imap.stride, [imap.entries[i] for i in perm])),
    )
    p = tmp_path / "trans.json"
    save_document(p, doc, weights_mode="sidecar")
    return p


def test_verify_accepts_any_consistent_input_map_order(pair, tmp_path, capsys):
    # the rewrite writes one channel layout, but a document may hold any
    # complete enumeration as long as the first conv reads it the same way
    perm = np.random.default_rng(33).permutation(8)
    for permute_weights, code, verdict in ((True, 0, "PASS"), (False, 1, "FAIL")):
        p = _with_input_map(pair, tmp_path, perm, permute_weights)
        assert main(["verify", str(pair / "orig.json"), str(p), "--trials", "5"]) == code
        assert verdict in capsys.readouterr().out
        # report reads the first conv's input channels in the map's order too
        assert main(["report", str(pair / "orig.json"), str(p), "--json"]) == code
        captured = capsys.readouterr()
        assert ("layer 0" in captured.err) == (code == 1)


def test_report_rejects_an_input_map_of_another_stride(pair, tmp_path, capsys):
    # as many entries as the rewrite's map, but one grid per channel, so the
    # first conv's channels cannot be matched to their sources
    tdoc = load_document(pair / "trans.json")
    doc = replace(tdoc, transform=replace(
        tdoc.transform, input_map=ChannelMap(1, [(k, 1, 1) for k in range(1, 9)])))
    p = tmp_path / "trans.json"
    save_document(p, doc, weights_mode="sidecar")
    for command in ("verify", "report"):
        assert main([command, str(pair / "orig.json"), str(p)]) == 3
        assert "map" in capsys.readouterr().err


def test_verify_tol_must_be_finite_and_nonnegative(pair, capsys):
    # any of these would fix the verdict whatever the networks compute
    args = ["verify", str(pair / "orig.json"), str(pair / "trans.json"), "--trials", "3"]
    for tol in ("nan", "-1", "inf", "-inf", "1e400", "x"):
        rc = main(args + [f"--tol={tol}"])
        err = capsys.readouterr().err
        assert rc == 2, tol
        assert "--tol" in err
    rc = main(args + ["--tol", "0", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["tolerance"] == 0.0
    assert rc == (0 if report["passed"] else 1)


def test_unparsable_numbers_name_the_option_not_the_parser(pair, capsys):
    verify = ["verify", str(pair / "orig.json"), str(pair / "trans.json")]
    for args, option, expected in (
        (verify + ["--trials", "x"], "--trials", "expected a positive integer, got 'x'"),
        (verify + ["--seed", "x"], "--seed", "expected a non-negative integer, got 'x'"),
        (verify + ["--tol", "x"], "--tol", "expected a finite number >= 0, got 'x'"),
        (["selftest", "--seed", "x"], "--seed", "expected a non-negative integer, got 'x'"),
    ):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert f"argument {option}: {expected}" in err
        assert "invalid" not in err
        assert not any(name in err for name in ("_positive_int", "_seed", "_tolerance"))


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
    # earlier versions wrote the identity; the reader rejects it by name like
    # any other list, and the same document without the key verifies
    feats = 3 * 3 * 3  # conv 3 @ 2x2 stride 2 over 6x6
    p = _with_flatten_permutation(pair, tmp_path, list(range(feats)))
    rc = main(["verify", str(pair / "orig.json"), str(p)])
    assert rc == 2
    assert "'flatten_permutation'" in capsys.readouterr().err
    raw = json.loads(p.read_text())
    del raw["transform"]["flatten_permutation"]
    p.write_text(json.dumps(raw))
    assert load_document(p).transform.source == "tiny"
    rc = main(["verify", str(pair / "orig.json"), str(p), "--trials", "5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_rejects_non_identity_flatten_permutation(pair, tmp_path, capsys):
    p = _with_flatten_permutation(pair, tmp_path, list(reversed(range(27))))
    rc = main(["verify", str(pair / "orig.json"), str(p)])
    assert rc == 2
    assert "'flatten_permutation'" in capsys.readouterr().err


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


# sha256 of each output below as json.dumps(..., indent=1) spelled it when
# it wrote every document and every --json output: the format strings and
# flat C-encoder calls that write them now must give the same bytes.  The
# sidecar-mode original and document digests are of documents that carry
# their sidecar's crc32.
GOLDEN_DIGESTS = {
    "lenet-inline:original":
        "03b461d0afeb362aa43270a7eaf2666edc5431e5437a4cf825625b518ab0ba1e",
    "lenet-inline:document":
        "1dacf5ff0431e6cc0492767629ed5d7fdff9d85d76380fa0b2c5f4ed5800106f",
    "lenet-inline:verify":
        "81a130187dbeaf2818f21ace388817592bd24b19f31ae74a7d160562ed7b00c2",
    "lenet-inline:report":
        "129193f419a4d9cab38b6f248e74470afbbbb7f2ad786d5c98d19d00066a1091",
    "lenet-sidecar:original":
        "e620668b932acd0753e4f51d79ba746bfa03c6da183bb5f2a15d95fa3a6c9325",
    "lenet-sidecar:document":
        "45ab41b28b9d699964612dc12816016a10e1f554babf13a304e38207b46a491e",
    "lenet-sidecar:verify":
        "81a130187dbeaf2818f21ace388817592bd24b19f31ae74a7d160562ed7b00c2",
    "lenet-sidecar:report":
        "129193f419a4d9cab38b6f248e74470afbbbb7f2ad786d5c98d19d00066a1091",
    "lenet-sidecar:original-sidecar":
        "dbc324744976252fd48cf6f623b020396a29d186aafaae378fedbb7f0c10d151",
    "lenet-sidecar:sidecar":
        "f252c65a4842f957b9ffa6551b107368ab3a2bc35bffeed3a40d690d703c4320",
    "random-inline:original":
        "e531d1dfbaf553fbce27ce26a2e217f4dd3a9d475b5e45d9ccca1f7395881fa0",
    "random-inline:document":
        "eee00b487c4efa9a858dbfdd8cdfef4c4c4f5fb69cd7e02c4605f8e9442ae285",
    "random-inline:verify":
        "f3d7aeacbb9801d3d8e33a3861155146b7b98b274a190d87fc390a6c84483db6",
    "random-inline:report":
        "1cb4c332180195e1328bb37c13441744fc2d411bd7993abaa4df1632576d000b",
    "random-sidecar:original":
        "087fdc4594e9f5e1f00b1aac7acaf46d7128e2867ddab2e9a95a9a10322d43e8",
    "random-sidecar:document":
        "581f8d6ed0c71cbd426aeb95cc498661f35bec0bb2da8ee0077e2d6cc1ce967a",
    "random-sidecar:verify":
        "f3d7aeacbb9801d3d8e33a3861155146b7b98b274a190d87fc390a6c84483db6",
    "random-sidecar:report":
        "1cb4c332180195e1328bb37c13441744fc2d411bd7993abaa4df1632576d000b",
    "random-sidecar:original-sidecar":
        "ae3bd5105eefa851f4e96584a72781625549976a0e8fdf063a230b059bb90772",
    "random-sidecar:sidecar":
        "5e658a6f7eb3c180ebfcf5b94dc422639640db2966689e8fbaf6581af4bdc1a0",
}


def test_outputs_keep_their_recorded_digests(tmp_path, capsys):
    lenet = init_params(load_document(FIXTURES / "lenet.json").network, seed=0)
    randoms = [init_params(_random_net(seed), seed=seed) for seed in range(10)]
    got = {}
    for group, nets in (("lenet", [lenet]), ("random", randoms)):
        for mode in ("inline", "sidecar"):
            digests = {k: hashlib.sha256() for k in ("original", "document", "verify", "report")}
            if mode == "sidecar":
                digests.update({k: hashlib.sha256() for k in ("original-sidecar", "sidecar")})
            for spec in nets:
                orig, trans = tmp_path / f"{spec.name}.json", tmp_path / f"{spec.name}-t.json"
                save_document(orig, SpecDocument(network=spec), weights_mode=mode)
                assert main(["transform", str(orig), str(trans)]) == 0
                capsys.readouterr()
                assert main(["verify", str(orig), str(trans), "--json", "--trials", "20",
                             "--seed", "3"]) == 0
                digests["verify"].update(capsys.readouterr().out.encode())
                assert main(["report", str(orig), str(trans), "--json"]) == 0
                digests["report"].update(capsys.readouterr().out.encode())
                digests["original"].update(orig.read_bytes())
                digests["document"].update(trans.read_bytes())
                if mode == "sidecar":
                    digests["original-sidecar"].update(orig.with_suffix(".weights.bin").read_bytes())
                    digests["sidecar"].update(trans.with_suffix(".weights.bin").read_bytes())
            got.update({f"{group}-{mode}:{k}": h.hexdigest() for k, h in digests.items()})
    assert got == GOLDEN_DIGESTS


def _transform_into_a_read_only_output(directory, mode, read_only):
    """(exit code, standard error, the kept file's bytes) of a transform
    into directory/out.json, where the file read_only is already there
    with mode 0444."""
    directory = Path(directory)
    spec = init_params(_random_net(3), seed=3)
    save_document(directory / "in.json", SpecDocument(network=spec), weights_mode=mode)
    kept = directory / read_only
    kept.write_bytes(b"old bytes, longer than nothing\n")
    kept.chmod(0o444)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["transform", str(directory / "in.json"), str(directory / "out.json")])
    return rc, err.getvalue(), kept.read_bytes()


# an unprivileged uid and gid ("nobody" on most systems)
NOBODY = 65534


def _as_nobody(mode, read_only):
    """_transform_into_a_read_only_output run by uid and gid NOBODY, for a
    root that mode bits do not bind.  The source tree may sit where NOBODY
    cannot read, so the child first runs the same steps as root, in a
    directory of its own, to import every module they use.  Then it works
    in a directory NOBODY owns: pytest's tmp_path lies under a directory of
    mode 0700."""
    child = f"""
import os, sys
sys.path[:0] = [{str(Path(__file__).resolve().parent)!r}]
import test_cli
os.mkdir(os.path.join(sys.argv[1], "root"))
test_cli._transform_into_a_read_only_output(os.path.join(sys.argv[1], "root"), *sys.argv[2:])
os.setgroups([])
os.setgid({NOBODY})
os.setuid({NOBODY})
print(repr(test_cli._transform_into_a_read_only_output(*sys.argv[1:])))
"""
    directory = tempfile.mkdtemp()
    try:
        os.chown(directory, NOBODY, NOBODY)
        done = subprocess.run(
            [sys.executable, "-c", child, directory, mode, read_only],
            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(directory)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("mode, read_only", [
    ("inline", "out.json"),
    ("sidecar", "out.json"),
    ("sidecar", "out.weights.bin"),
])
def test_transform_into_a_read_only_output_exits_4_and_keeps_it(tmp_path, mode, read_only):
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        rc, err, kept = _as_nobody(mode, read_only)
    else:
        rc, err, kept = _transform_into_a_read_only_output(tmp_path, mode, read_only)
    assert rc == 4
    assert "Permission denied" in err
    assert kept == b"old bytes, longer than nothing\n"


def test_transform_into_a_directory_exits_4_and_leaves_it(tmp_path, capsys):
    # an output the writer cannot open, whoever runs it
    out = tmp_path / "out.json"
    out.mkdir()
    (out / "kept").write_bytes(b"kept")
    assert main(["transform", str(FIXTURES / "lenet.json"), str(out)]) == 4
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["kept"]
    assert (out / "kept").read_bytes() == b"kept"


@pytest.mark.parametrize("mode", ["inline", "sidecar"])
def test_transform_over_its_own_input(tmp_path, capsys, mode):
    # the input is read whole before its files are written over
    spec = init_params(_random_net(5), seed=5)
    own, other, fresh = (tmp_path / d / "a.json" for d in ("own", "other", "fresh"))
    for p in (own, other, fresh):
        p.parent.mkdir()
    for p in (own, other):
        save_document(p, SpecDocument(network=spec), weights_mode=mode)
    assert main(["transform", str(own), str(own)]) == 0
    assert main(["transform", str(other), str(fresh)]) == 0
    capsys.readouterr()
    assert own.read_bytes() == fresh.read_bytes()
    if mode == "sidecar":
        assert own.with_suffix(".weights.bin").read_bytes() == (
            fresh.with_suffix(".weights.bin").read_bytes())
    want = transform_network(spec)
    got = load_document(own)
    assert got.transform.input_map.entries == want.input_map.entries
    assert got.transform.source == spec.name
    assert len(got.network.layers) == len(want.network.layers)
    for a, b in zip(got.network.layers, want.network.layers):
        assert type(a) is type(b)
        if getattr(b, "weights", None) is not None:
            assert np.array_equal(a.weights, b.weights)


def test_transform_writes_to_a_device_and_a_pipe(tmp_path, capsys):
    # neither can be cut to length, so both are only written
    assert main(["transform", str(FIXTURES / "lenet.json"), os.devnull]) == 0
    capsys.readouterr()
    if not os.path.exists("/dev/stdout"):
        return
    # standard output into a pipe is block-buffered (PYTHONUNBUFFERED unset),
    # and the document is written to /dev/stdout past that buffer
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-m", "destride", "transform", str(FIXTURES / "lenet.json"),
         "/dev/stdout"],
        env={**env, "PYTHONPATH": str(FIXTURES.parent / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trans = tmp_path / "t.json"
    assert main(["transform", str(FIXTURES / "lenet.json"), str(trans)]) == 0
    table = capsys.readouterr().out.removesuffix(f"\nwrote {trans}\n")
    # the table first, then the document as written
    assert done.stdout == table + trans.read_text() + "\nwrote /dev/stdout\n"


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


@pytest.fixture(scope="module")
def lenet_pair(tmp_path_factory):
    # weighted LeNet (sidecar mode) and its CLI-produced transform
    d = tmp_path_factory.mktemp("lenet-pair")
    spec = init_params(load_document(FIXTURES / "lenet.json").network, seed=0)
    save_document(d / "orig.json", SpecDocument(network=spec), weights_mode="sidecar")
    assert main(["transform", str(d / "orig.json"), str(d / "trans.json")]) == 0
    return d


def _edited_first_conv(lenet_pair, tmp_path, edit):
    # the transformed LeNet with edit applied to a copy of its layer 0 weights
    tdoc = load_document(lenet_pair / "trans.json")
    conv, *rest = tdoc.network.layers
    weights = conv.weights.copy()
    edit(weights)
    doc = replace(tdoc, network=replace(tdoc.network,
                                        layers=(replace(conv, weights=weights), *rest)))
    p = tmp_path / "trans.json"
    save_document(p, doc, weights_mode="sidecar")
    return p


def _assert_report_names_layer_0(lenet_pair, trans, capsys):
    for args in ([], ["--json"]):
        rc = main(["report", str(lenet_pair / "orig.json"), str(trans), *args])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: layer 0: ")
        assert "layer 2" not in captured.err


def test_report_clean_weighted_pair_exits_0(lenet_pair, capsys):
    rc = main(["report", str(lenet_pair / "orig.json"), str(lenet_pair / "trans.json"),
               "--json"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert [r["replication"] for r in json.loads(captured.out)] == [16, 4, 4, 1, 1]


def test_report_accepts_nan_copied_from_nan(tmp_path, capsys):
    spec = init_params(
        NetworkSpec("nan", (1, 4, 4), (ConvLayer(2, (2, 2), 2), FullyConnectedLayer(3))),
        seed=5,
    )
    for layer in spec.layers:
        layer.weights.flat[1] = np.nan
    save_document(tmp_path / "o.json", SpecDocument(network=spec), weights_mode="sidecar")
    assert main(["transform", str(tmp_path / "o.json"), str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "o.json"), str(tmp_path / "t.json"), "--json"]) == 0
    assert capsys.readouterr().err == ""


def test_report_rejects_a_changed_stored_value(lenet_pair, tmp_path, capsys):
    def edit(w):
        w[0, 0, 0, 0] += 1000.0

    trans = _edited_first_conv(lenet_pair, tmp_path, edit)
    _assert_report_names_layer_0(lenet_pair, trans, capsys)
    main(["report", str(lenet_pair / "orig.json"), str(trans)])
    err = capsys.readouterr().err
    assert "1 of 20480 stored values differ" in err
    assert "first at stored index (0, 0, 0, 0), source index 0" in err


def test_report_rejects_a_one_ulp_change(lenet_pair, tmp_path, capsys):
    def edit(w):
        w[3, 5, 1, 0] = np.nextafter(w[3, 5, 1, 0], np.inf)

    trans = _edited_first_conv(lenet_pair, tmp_path, edit)
    _assert_report_names_layer_0(lenet_pair, trans, capsys)


def test_report_rejects_a_nonzero_padding_value(lenet_pair, tmp_path, capsys):
    sources = transform_network(load_document(lenet_pair / "orig.json").network).sources[0]
    at = tuple(int(v) for v in np.argwhere(sources < 0)[0])

    def edit(w):
        assert w[at] == 0.0
        w[at] = 0.5

    trans = _edited_first_conv(lenet_pair, tmp_path, edit)
    _assert_report_names_layer_0(lenet_pair, trans, capsys)
    main(["report", str(lenet_pair / "orig.json"), str(trans)])
    assert f"first at stored index {at}, source index -1" in capsys.readouterr().err


def test_report_rejects_swapped_input_map_entries(lenet_pair, tmp_path, capsys):
    tdoc = load_document(lenet_pair / "trans.json")
    entries = list(tdoc.transform.input_map.entries)
    entries[0], entries[1] = entries[1], entries[0]
    doc = replace(tdoc, transform=replace(
        tdoc.transform, input_map=ChannelMap(tdoc.transform.input_map.stride, entries)))
    trans = tmp_path / "trans.json"
    save_document(trans, doc, weights_mode="sidecar")
    _assert_report_names_layer_0(lenet_pair, trans, capsys)


def _edited_transform(original, tmp_path, edit):
    # the CLI-produced transform of original with edit applied to its
    # network, saved with sidecar weights
    trans = tmp_path / "trans.json"
    assert main(["transform", str(original), str(trans)]) == 0
    tdoc = load_document(trans)
    save_document(trans, replace(tdoc, network=edit(tdoc.network)), weights_mode="sidecar")
    return trans


def _assert_report_rejects_architecture(original, trans, capsys, error):
    capsys.readouterr()
    for args in ([], ["--json"]):
        rc = main(["report", str(original), str(trans), *args])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


def test_report_rejects_a_changed_activation(lenet_pair, tmp_path, capsys):
    # every ReLU made the identity: the weights are all the right copies,
    # but verify fails this pair by about 1e5
    def edit(net):
        return replace(net, layers=tuple(
            ActivationLayer("identity") if isinstance(l, ActivationLayer) else l
            for l in net.layers
        ))

    trans = _edited_transform(lenet_pair / "orig.json", tmp_path, edit)
    _assert_report_rejects_architecture(
        lenet_pair / "orig.json", trans, capsys,
        "layer 1: activation identity is not the rewrite's activation relu",
    )


def test_report_rejects_an_activation_replaced_by_a_conv(tmp_path, capsys):
    # a 1x1 conv of weight 1 keeps every feature-map shape, so the dense
    # weights still have the shape the rewrite gives them
    spec = init_params(
        NetworkSpec("relu", (1, 4, 4), (ConvLayer(1, (2, 2), 2), ActivationLayer("relu"),
                                        FullyConnectedLayer(1))),
        seed=3,
    )
    original = tmp_path / "orig.json"
    save_document(original, SpecDocument(network=spec), weights_mode="sidecar")

    def edit(net):
        conv, _, dense = net.layers
        return replace(net, layers=(conv, ConvLayer(1, (1, 1), 1, np.ones((1, 1, 1, 1))),
                                    dense))

    trans = _edited_transform(original, tmp_path, edit)
    _assert_report_rejects_architecture(
        original, trans, capsys, "layer 1: conv 1 @ 1x1 is not the rewrite's activation relu"
    )


def test_report_rejects_another_input_shape(tmp_path, capsys):
    # a conv-only net: a larger input changes no weight shape, only the
    # size of the output
    spec = init_params(NetworkSpec("conv", (1, 4, 4), (ConvLayer(1, (2, 2), 2),)), seed=4)
    original = tmp_path / "orig.json"
    save_document(original, SpecDocument(network=spec), weights_mode="sidecar")
    trans = _edited_transform(original, tmp_path,
                              lambda net: replace(net, input_shape=(4, 3, 3)))
    _assert_report_rejects_architecture(
        original, trans, capsys, "input shape 4x3x3 is not the rewrite's 4x2x2"
    )


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


def test_python_m_destride_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "destride", "selftest", "--property", "sampled-conv-identity"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "1/1 properties passed" in done.stdout


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


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_does_not_leak_into_the_next_call(pair, capsys):
    assert main(["verify", str(pair / "orig.json")]) == 2
    first = capsys.readouterr()
    assert "required" in first.err
    assert main(["verify", str(pair / "orig.json"), str(pair / "trans.json"),
                 "--trials", "2"]) == 0
    second = capsys.readouterr()
    assert "PASS" in second.out
    assert second.err == ""


def test_repeated_property_filter_does_not_accumulate(capsys):
    for _ in range(2):
        assert main(["selftest", "--property", "grid-partition"]) == 0
        out = capsys.readouterr().out
        assert "1/1 properties passed" in out
        assert out.count("PASS") == 1


def test_option_values_do_not_leak_into_the_next_call(pair, capsys):
    args = ["verify", str(pair / "orig.json"), str(pair / "trans.json"), "--json"]
    assert main(args + ["--trials", "3", "--seed", "4", "--tol", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 3
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 100
    assert report["tolerance"] == 1e-9
