"""Convolution as a 4-D tensor contraction.

A valid 2-D correlation can be packaged as a rank-4 tensor acting on the
image. This walkthrough builds that tensor for a small filter, checks the
contraction against the sliding-window result, and recovers the filter
back out of the tensor.

Run from the repository root: PYTHONPATH=src:tests python3 demos/convolution_tensors.py
"""

import numpy as np

from lemmas import (
    build_conv_tensor,
    conv2d,
    extract_filter,
    is_conv_tensor,
    tensor_product,
)

r = np.random.default_rng(0)

h = np.array([[1.0, 2.0], [3.0, 4.0]])
x = r.integers(0, 10, (4, 5)).astype(float)

print("filter h:")
print(h)
print("image x:")
print(x)

t = build_conv_tensor(h, x.shape)
print("\nconv tensor shape (out_rows, out_cols, img_cols, img_rows):", t.shape)

# each (i, j) slice holds one copy of the filter, transposed, at offset (j, i)
print("slice t[0, 0] with the filter planted in the corner:")
print(t[0, 0])

out_tensor = tensor_product(t, x)
out_sliding = conv2d(h, x)
print("\ncontraction result:")
print(out_tensor)
print("max |contraction - sliding window| =", np.abs(out_tensor - out_sliding).max())

print("\nis_conv_tensor(t):", is_conv_tensor(t))
bad = t.copy()
bad[0, 0, -1, -1] += 1.0  # break the shared-weight structure in one cell
print("after perturbing one entry:", is_conv_tensor(bad))

print("\nextract_filter recovers h:")
print(extract_filter(t))
