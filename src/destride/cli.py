"""Command-line surface for the library.

Subcommands:
  transform  rewrite a strided network spec into an equivalent stride-1 spec
  verify     numerically compare a transformed spec against its source
  report     per-layer parameter sharing table for an original/transformed pair
  selftest   run the bundled seeded property suite

Exit codes: 0 success, 1 verification or selftest failure or stored weights
that are not the copies `report` expects, 2 usage or document-format error,
3 divisibility/shape error or an architecture `report` rejects, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .network import (
    ActivationLayer,
    ConvLayer,
    NetworkSpec,
    parameter_report,
    verify_equivalence,
)
from .sampling import RaggedSamplingError
from .selftest import PROPERTY_NAMES, format_report, run_selftest
from .specio import (
    SpecDocument,
    SpecFormatError,
    TransformMetadata,
    _items,
    load_document,
    save_document,
)
from .transform import transform_network


def _option_type(convert, ok, expected: str):
    """An argparse type: convert(text), accepted when ok(value), else the
    usage error "expected <expected>, got <text>"."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    return parse


_positive_int = _option_type(int, lambda v: v >= 1, "a positive integer")
_seed = _option_type(int, lambda v: v >= 0, "a non-negative integer")
_tolerance = _option_type(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")


_CONTAINERS = (list, tuple, dict)


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    # without indent, JSONEncoder.encode runs the C encoder
    return json.JSONEncoder(separators=(",\n" + " " * depth, ": "))


def _json_text(obj, depth: int = 0) -> str:
    """json.dumps(obj, indent=1), byte for byte, for lists, tuples and
    str-keyed dicts: the C encoder renders each container that holds no
    other, with one value per line, and the others are joined by the
    writer's _items."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(v, _CONTAINERS) for v in values):
        text = _flat_encoder(depth + 1).encode(obj)
        return f"{text[0]}\n{' ' * (depth + 1)}{text[1:-1]}\n{' ' * depth}{text[-1]}"
    items = [_json_text(v, depth + 1) for v in values]
    if isinstance(obj, dict):
        return _items([f"{json.dumps(k)}: {v}" for k, v in zip(obj, items)], depth, "{}")
    return _items(items, depth)


def _shape_text(shape) -> str:
    if isinstance(shape, tuple):
        return "x".join(str(v) for v in shape)
    return str(shape)


def _describe_layer(layer) -> str:
    if isinstance(layer, ConvLayer):
        kh, kw = layer.kernel
        text = f"conv {layer.channels_out} @ {kh}x{kw}"
        if layer.stride != 1:
            text += f" stride {layer.stride}"
        return text
    if isinstance(layer, ActivationLayer):
        return f"activation {layer.function}"
    return f"fully-connected {layer.units}"


def format_architecture(spec: NetworkSpec, shapes) -> str:
    """Layer-by-layer table of a network beside shapes, its per-layer output
    shapes as infer_shapes gives them."""
    lines = [f"{spec.name}: input {_shape_text(spec.input_shape)}"]
    for i, (layer, shape) in enumerate(zip(spec.layers, shapes)):
        lines.append(f"  {i:>2}  {_describe_layer(layer):<30} -> {_shape_text(shape)}")
    return "\n".join(lines)


def cmd_transform(args) -> int:
    doc = load_document(args.input)
    spec = doc.network
    if all(l.stride == 1 for l in spec.layers if isinstance(l, ConvLayer)):
        print("warning: all strides are 1; nothing to eliminate", file=sys.stderr)
    result = transform_network(spec)
    # both tables from the rewrite's one walk of the original's shapes
    print(format_architecture(spec, result.shapes))
    print()
    print(format_architecture(result.network, result.transformed_shapes))
    out = SpecDocument(
        network=result.network,
        transform=TransformMetadata(source=spec.name, input_map=result.input_map),
    )
    # the table first, also when the document goes to standard output
    sys.stdout.flush()
    save_document(args.output, out, weights_mode=doc.weights_mode)
    print(f"\nwrote {args.output}")
    return 0


def _load_linked_pair(original_path, transformed_path):
    odoc = load_document(original_path)
    tdoc = load_document(transformed_path)
    meta = tdoc.transform
    if meta is None:
        raise SpecFormatError(
            f"{transformed_path}: no transform metadata; produce the file with "
            "`destride transform`"
        )
    if meta.source != odoc.network.name:
        raise SpecFormatError(
            f"transform source '{meta.source}' does not match original "
            f"network '{odoc.network.name}'"
        )
    return odoc, tdoc, meta


def _carries_weights(network: NetworkSpec) -> bool:
    return all(
        getattr(l, "weights", None) is not None
        for l in network.layers
        if not isinstance(l, ActivationLayer)
    )


def cmd_verify(args) -> int:
    odoc, tdoc, meta = _load_linked_pair(args.original, args.transformed)
    for path, doc in ((args.original, odoc), (args.transformed, tdoc)):
        if not _carries_weights(doc.network):
            raise SpecFormatError(
                f"{path}: document carries no weights; verification needs "
                "parameterized networks (save with inline or sidecar weights)"
            )
    report = verify_equivalence(
        odoc.network,
        tdoc.network,
        meta.input_map,
        trials=args.trials,
        tol=args.tol,
        seed=args.seed,
    )
    if args.json:
        print(_json_text(report.as_dict()))
    else:
        print(
            f"{odoc.network.name} vs {tdoc.network.name}: "
            f"{report.trials} trials, tolerance {report.tolerance:g}"
        )
        print(f"max |original - transformed| = {report.max_abs_dev:.3e}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _rewrite_mismatches(result, transformed: NetworkSpec, input_map) -> list[str]:
    """Compare a transformed document with the rewrite of its original
    (result).  Raises ValueError at the first difference in architecture:
    the input map's stride or length, the input shape, the layer count, or
    a layer's kind, channels_out, kernel, stride, function or units.  When
    both networks carry weights, returns one line per layer whose stored
    values are not the copies the rewrite makes, NaN matching NaN.  The
    first conv's input channels are compared in input_map order; source
    index -1 marks a padding position."""
    if input_map.stride != result.input_map.stride or len(input_map) != len(result.input_map):
        raise ValueError(
            f"input map (stride {input_map.stride}, {len(input_map)} channels) does not match "
            f"the rewrite's (stride {result.input_map.stride}, {len(result.input_map)} channels)"
        )
    if transformed.input_shape != result.network.input_shape:
        raise ValueError(f"input shape {_shape_text(transformed.input_shape)} is not the "
                         f"rewrite's {_shape_text(result.network.input_shape)}")
    if len(transformed.layers) != len(result.network.layers):
        raise ValueError(f"transformed network has {len(transformed.layers)} layers, "
                         f"original has {len(result.network.layers)}")
    for i, (want, got) in enumerate(zip(result.network.layers, transformed.layers)):
        if _describe_layer(got) != _describe_layer(want):
            raise ValueError(f"layer {i}: {_describe_layer(got)} is not the rewrite's "
                             f"{_describe_layer(want)}")
    if not (_carries_weights(result.network) and _carries_weights(transformed)):
        return []
    first_conv = min(result.sources, default=None)
    lines = []
    for i, (want, got) in enumerate(zip(result.network.layers, transformed.layers)):
        if isinstance(want, ActivationLayer):
            continue
        want, got = want.weights, got.weights
        src = result.sources.get(i)
        if i == first_conv:
            want, src = want[:, input_map.positions], src[:, input_map.positions]
        bad = got != want
        if bad.any():
            bad &= ~(np.isnan(got) & np.isnan(want))  # a NaN copied from a NaN
        if not bad.any():
            continue
        at = np.unravel_index(np.argmax(bad), bad.shape)
        source = src[at] if src is not None else np.ravel_multi_index(at, bad.shape)
        lines.append(
            f"layer {i}: {int(bad.sum())} of {bad.size} stored values differ from the "
            f"weights they copy; first at stored index {tuple(int(v) for v in at)}, "
            f"source index {int(source)}"
        )
    return lines


def cmd_report(args) -> int:
    odoc, tdoc, meta = _load_linked_pair(args.original, args.transformed)
    result = transform_network(odoc.network)
    mismatches = _rewrite_mismatches(result, tdoc.network, meta.input_map)
    for line in mismatches:
        print(f"error: {line}", file=sys.stderr)
    if mismatches:
        return 1
    rows = parameter_report(odoc.network, result.sources)
    if args.json:
        print(_json_text([r.as_dict() for r in rows]))
        return 0
    print(f"parameter sharing: {odoc.network.name} -> {tdoc.network.name}")
    print(f"{'layer':>5}  {'kind':<16} {'original':>9} {'stored':>9} {'padding':>9} {'distinct':>9} {'replication':>11}")
    for r in rows:
        print(
            f"{r.layer_index:>5}  {r.kind:<16} {r.original_count:>9} "
            f"{r.stored_volume:>9} {r.padding_zeros:>9} {r.distinct_sources:>9} "
            f"{r.replication:>11}"
        )
    total_orig = sum(r.original_count for r in rows)
    total_stored = sum(r.stored_volume for r in rows)
    print(f"totals: {total_orig} original parameters, {total_stored} stored values")
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, names=args.property)
    print(format_report(results, args.seed))
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `destride` argument parser, built on first use and shared by every
    later call, so callers must not change it.

    Parsing leaves the parser unchanged: each call gets a fresh namespace,
    so `main` can run any number of commands in one process."""
    parser = argparse.ArgumentParser(
        prog="destride",
        description="Rewrite strided all-convolutional networks into "
        "equivalent stride-1 networks and verify the equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="rewrite a spec file to unity strides")
    p.add_argument("input", help="path of the network spec document")
    p.add_argument("output", help="path to write the transformed document")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="compare a transformed spec to its source")
    p.add_argument("original", help="path of the source spec document")
    p.add_argument("transformed", help="path of the transformed spec document")
    p.add_argument("--trials", type=_positive_int, default=100,
                   help="number of random inputs (default 100)")
    p.add_argument("--tol", type=_tolerance, default=1e-9,
                   help="max absolute deviation allowed, finite and >= 0 "
                   "(default 1e-9)")
    p.add_argument("--seed", type=_seed, default=0, help="input generator seed")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="per-layer parameter sharing table")
    p.add_argument("original", help="path of the source spec document")
    p.add_argument("transformed", help="path of the transformed spec document")
    p.add_argument("--json", action="store_true",
                   help="print the rows as JSON")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="run the seeded property suite")
    p.add_argument("--seed", type=_seed, default=0, help="suite seed")
    p.add_argument("--property", action="append", choices=PROPERTY_NAMES,
                   metavar="NAME",
                   help="run only the named property (repeatable); one of: "
                   + ", ".join(PROPERTY_NAMES))
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        return args.func(args)
    except SpecFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RaggedSamplingError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
