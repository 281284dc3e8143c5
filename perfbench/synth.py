"""Synthetic paper-shaped datasets written as MNIST / Fashion-MNIST IDX files.

Each class has a random prototype image made of square blocks; an example is
its prototype plus pixel noise, quantized to uint8. A fixed share of
examples is drawn
from another class's prototype while keeping its own label, which caps the
reachable accuracy well below 1.0. Labels come in shuffled blocks of ten, so
every prefix of a multiple of ten examples holds each class equally often:
class counts (and with them fedte's proxy split and Dirichlet shard sizes)
do not depend on the seed, only pixel values do.

The writers here are the benchmark's own; fedte sees only the files.
"""

import os
import struct

import numpy as np

N_CLASSES = 10
IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
BACKGROUND = 0.3  # pixel value where the prototype is zero
SIGNAL = 1.0  # prototype scale; prototypes have unit standard deviation
NOISE = 0.3  # standard deviation of the pixel noise
CONFUSABLE = 0.2  # share of examples drawn from another class's prototype


def _prototypes(rng, shape, cell):
    # orthonormal coarse patterns keep every pair of classes equally far apart
    c, h, w = shape
    coarse_shape = (c, h // cell, w // cell)
    q, _ = np.linalg.qr(rng.standard_normal((int(np.prod(coarse_shape)), N_CLASSES)))
    coarse = q.T.reshape((N_CLASSES,) + coarse_shape)
    protos = coarse.repeat(cell, axis=2).repeat(cell, axis=3)
    protos /= protos.std(axis=(1, 2, 3), keepdims=True)
    return protos.astype(np.float32)


def _labels(rng, n):
    blocks = -(-n // N_CLASSES)
    return np.concatenate([rng.permutation(N_CLASSES) for _ in range(blocks)])[:n]


def _images(rng, protos, labels):
    source = labels.copy()
    swap = rng.permutation(labels.size)[:int(round(CONFUSABLE * labels.size))]
    source[swap] = (labels[swap] + rng.integers(1, N_CLASSES, swap.size)) % N_CLASSES
    x = rng.standard_normal((labels.size,) + protos.shape[1:], dtype=np.float32)
    x *= NOISE
    x += BACKGROUND + SIGNAL * protos[source]
    return np.rint(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8)


def generate(seed, shape, cell, n_train, n_test):
    """(train_images, train_labels, test_images, test_labels) as uint8 arrays.

    The prototypes are made of cell x cell blocks and depend only on the
    shape, so every seed draws examples from the same task and training
    progresses at the same pace.
    """
    protos = _prototypes(np.random.default_rng(shape), shape, cell)
    rng = np.random.default_rng(seed)
    out = []
    for n in (n_train, n_test):
        labels = _labels(rng, n)
        out += [_images(rng, protos, labels), labels.astype(np.uint8)]
    return tuple(out)


def write_idx(directory, prefix, images, labels):
    n, _, h, w = images.shape
    with open(os.path.join(directory, f"{prefix}-images-idx3-ubyte"), "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(images.tobytes())
    with open(os.path.join(directory, f"{prefix}-labels-idx1-ubyte"), "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(labels.tobytes())


def write_dataset(directory, seed, shape, cell, n_train, n_test):
    """Write the files `fedte run --dataset mnist|fashion --data-dir <directory>` reads."""
    tr_x, tr_y, te_x, te_y = generate(seed, shape, cell, n_train, n_test)
    os.makedirs(directory, exist_ok=True)
    write_idx(directory, "train", tr_x, tr_y)
    write_idx(directory, "t10k", te_x, te_y)
