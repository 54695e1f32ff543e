"""Brute-force reference implementations used to check the library.

Everything here is deliberately written as plain index loops, without any
vectorisation and without importing the package under test, so that the two
sides of every comparison are independent.  Slow is fine; these only run on
small inputs.
"""

from __future__ import annotations

import numpy as np


def slide_correlate(h, x):
    """Valid-mode sliding inner product, the loop definition."""
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=float)
    a, b = h.shape
    c, d = x.shape
    out = np.zeros((c - a + 1, d - b + 1))
    for i in range(c - a + 1):
        for j in range(d - b + 1):
            acc = 0.0
            for u in range(a):
                for v in range(b):
                    acc += h[u, v] * x[i + u, j + v]
            out[i, j] = acc
    return out


def slide_correlate_strided(h, x, s):
    """Strided correlation: every s-th output of the full correlation."""
    full = slide_correlate(h, x)
    rows = [full[i] for i in range(0, full.shape[0], s)]
    out = np.array(rows)
    cols = [out[:, j] for j in range(0, out.shape[1], s)]
    return np.array(cols).T


def grid_sample(x, m, n, s):
    """Keep entries at 1-based positions ((i-1)s+m, (j-1)s+n), by enumeration."""
    x = np.asarray(x, dtype=float)
    rows = []
    i = m - 1
    while i < x.shape[0]:
        rows.append(i)
        i += s
    cols = []
    j = n - 1
    while j < x.shape[1]:
        cols.append(j)
        j += s
    out = np.zeros((len(rows), len(cols)))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            out[a, b] = x[i, j]
    return out


def tensor_contract(t, x):
    """The four-index contraction out[i,j] = sum_{k,l} t[i,j,k,l] * x[l,k]."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    d1, d2, d3, d4 = t.shape
    out = np.zeros((d1, d2))
    for i in range(d1):
        for j in range(d2):
            acc = 0.0
            for k in range(d3):
                for l in range(d4):
                    acc += t[i, j, k, l] * x[l, k]
            out[i, j] = acc
    return out


def multichannel_forward(w, x, s):
    """Per-channel strided correlation summed over input channels."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    cout = w.shape[0]
    out = []
    for c in range(cout):
        acc = None
        for k in range(w.shape[1]):
            term = slide_correlate_strided(w[c, k], x[k], s)
            acc = term if acc is None else acc + term
        out.append(acc)
    return np.array(out)


def source_map(cin, kernel, stride, sigma_in, out_entries, in_entries):
    """Source map of one transformed conv layer, by the paper's construction.

    For output entry (c, m, n) and input entry (k, p, q), all 1-based: take
    the matrix of flat indices of H[c, k] in the (cout, cin, kh, kw) weight
    block, prepend (m-1)*stride rows and (n-1)*stride columns of -1, take its
    (p, q, sigma_in) grid sample, and pad it bottom/right with -1 up to the
    largest piece.  Returns an int64 array (len(out), len(in), hh, ww).
    """
    kh, kw = kernel
    pieces = []
    for c, m, n in out_entries:
        row = []
        for k, p, q in in_entries:
            index = []
            for u in range(kh):
                index.append([(((c - 1) * cin + (k - 1)) * kh + u) * kw + v for v in range(kw)])
            top = (m - 1) * stride
            left = (n - 1) * stride
            padded = []
            for _ in range(top):
                padded.append([-1] * (left + kw))
            for line in index:
                padded.append([-1] * left + line)
            sample = []
            i = p - 1
            while i < len(padded):
                picked = []
                j = q - 1
                while j < len(padded[i]):
                    picked.append(padded[i][j])
                    j += sigma_in
                sample.append(picked)
                i += sigma_in
            row.append(sample)
        pieces.append(row)
    hh = max(len(g) for row in pieces for g in row)
    ww = max(len(line) for row in pieces for g in row for line in g)
    out = np.full((len(out_entries), len(in_entries), hh, ww), -1, dtype=np.int64)
    for a, row in enumerate(pieces):
        for b, g in enumerate(row):
            for r, line in enumerate(g):
                for t, value in enumerate(line):
                    out[a, b, r, t] = value
    return out
