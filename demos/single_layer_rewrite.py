"""Rewriting one strided convolution as a sum of unit-stride ones.

A stride-s correlation only ever pairs filter entries with image entries
from matching offset grids. Splitting both the filter and the image into
their s*s grid samples therefore turns one strided layer into s*s
unit-stride layers whose outputs add up to the original response.

Run from the repository root: PYTHONPATH=src:tests python3 demos/single_layer_rewrite.py
"""

import numpy as np

from lemmas import conv2d, conv2d_strided, destride_layer

# 1-D warm-up: stride 2 over an 8-wide row
h = np.array([[1.0, 2.0, 3.0, 4.0]])
x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])

strided = conv2d_strided(h, x, 2)
print("strided response:", strided)

filters, channels = destride_layer(h, x, 2)
print("\npieces:")
for g, xs in zip(filters, channels):
    print("filter piece", g, "image piece", xs)

total = sum(conv2d(g, xs) for g, xs in zip(filters, channels))
print("\nsum of unit-stride responses:", total)
print("identical:", np.array_equal(total, strided))

# 2-D case with random values
r = np.random.default_rng(1)
h2 = r.standard_normal((3, 3))
x2 = r.standard_normal((6, 6))
s = 2

strided2 = conv2d_strided(h2, x2, s)
filters2, channels2 = destride_layer(h2, x2, s)
total2 = sum(conv2d(g, xs) for g, xs in zip(filters2, channels2))

print(f"\n2-D stride-{s} layer split into {len(filters2)} unit-stride pieces")
print("piece filter shape:", filters2[0].shape, "piece image shape:", channels2[0].shape)
print("max deviation:", np.abs(total2 - strided2).max())
