"""Spans recorded from outside the library.

A Tracer patches public functions where the calling module looks them up
(destride.cli's imported names, destride.network.forward and its
conv_multichannel, destride.transform.reshape_input), so every call records
a span: name, tag, start, end and the span that was open when it began.
Spans stay in memory until dump().  Nothing under src/ changes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import destride.cli
import destride.network
import destride.transform

# (module object, attribute, span name); the span name's first part is the
# destride module that owns the function
PATCHES = (
    (destride.cli, "load_document", "specio.load_document"),
    (destride.cli, "save_document", "specio.save_document"),
    (destride.cli, "transform_network", "transform.transform_network"),
    (destride.cli, "sharing_trace", "transform.sharing_trace"),
    (destride.transform, "reshape_input", "transform.reshape_input"),
    (destride.cli, "infer_shapes", "network.infer_shapes"),
    (destride.cli, "verify_equivalence", "network.verify_equivalence"),
    (destride.cli, "parameter_report", "network.parameter_report"),
    (destride.network, "forward", "network.forward"),
    (destride.network, "conv_multichannel", "convolution.conv_multichannel"),
    (destride.cli, "run_selftest", "selftest.run_selftest"),
)


class Tracer:
    """Records spans while installed, and nothing otherwise."""

    def __init__(self):
        self.spans = []        # [name, tag, start, end, parent index]
        self._open = []        # indices of spans not yet ended
        self._saved = []       # (module, attribute, original) while installed

    @contextmanager
    def span(self, name, tag=None):
        if not self._saved:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, tag, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name):
        @wraps(fn)
        def traced(*args, **kwargs):
            tag = str(args[0]) if name.startswith("specio.") and args else None
            with self.span(name, tag):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        for module, attr, name in PATCHES:
            original = getattr(module, attr, None)
            if original is None:   # a later source tree may drop the call
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def children(self):
        kids = defaultdict(list)
        for i, (_, _, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                kids[parent].append(i)
        return kids

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        kids = self.children()
        out = []
        for i, (_, _, start, end, _) in enumerate(self.spans):
            covered = sum(self.spans[k][3] - self.spans[k][2] for k in kids[i])
            out.append(end - start - covered)
        return out

    def dump(self, path):
        keys = ("name", "tag", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))
