"""Dataset ingestion (IDX, CIFAR-10 binary), Dirichlet partitioning and batching.

The loaders keep pixels as the file's uint8 bytes. `Dataset.pixels` converts
the rows a reader gathers to float32 in [0, 1], elementwise, so a batch has
the bits of one gathered from a dataset converted whole at load time.
"""

import contextlib
import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestionError
from .nn import Batch

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels
N_CLASSES = 10  # MNIST, Fashion-MNIST and CIFAR-10 each have ten


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) uint8 file bytes, or float32 in [0, 1]; read by `pixels`
    labels: np.ndarray  # (N,) int64

    def __len__(self):
        return self.images.shape[0]

    def pixels(self, rows):
        """The images at `rows` (any index) as float32 in [0, 1]."""
        raw = self.images[rows]
        return _pixels(raw) if raw.dtype == np.uint8 else raw

    def subset(self, indices):
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx])

    @property
    def input_shape(self):
        return tuple(self.images.shape[1:])


@contextlib.contextmanager
def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        gzipped = f.read(2) == b"\x1f\x8b"
    try:
        with gzip.open(path) if gzipped else open(path, "rb") as f:
            yield f
            while gzipped and f.read(1 << 20):  # to the end, where gzip checks CRC and length
                pass
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # a truncated or corrupt stream
        raise IngestionError(f"{path}: {exc}") from None


def _class_labels(raw, path):
    """uint8 label bytes as int64 class ids; IngestionError past the last class."""
    if raw.size and raw.max() >= N_CLASSES:
        raise IngestionError(f"label {raw.max()} in {path} is not a class "
                             f"(0-{N_CLASSES - 1})")
    return raw.astype(np.int64)


def _pixels(raw):
    """uint8 pixels as float32 in [0, 1]: bitwise `raw.astype(np.float32) / 255.0`,
    made without a float32 temporary."""
    return np.divide(raw, np.float32(255), dtype=np.float32)


def _read_idx(path, magic, limit):
    """(the header's record count, its first `limit` records, all if 0) of an IDX
    file of bytes; a raw file's bytes past those records are not read."""
    with _open_maybe_gzip(path) as f:
        header = f.read(4 * (1 + magic % 256))  # the magic's low byte counts the dimensions
        if len(header) < 4 * (1 + magic % 256):
            raise IngestionError(f"truncated IDX header in {path}")
        found, n, *shape = struct.unpack(f">{len(header) // 4}I", header)
        if found != magic:
            raise IngestionError(f"bad magic {found:#x} in {path}")
        rows = min(n, limit or n)
        raw = f.read(rows * math.prod(shape))
        if len(raw) != rows * math.prod(shape):
            raise IngestionError(f"truncated data in {path}")
    return n, np.frombuffer(raw, dtype=np.uint8).reshape(rows, *shape)


def load_idx(images_path, labels_path, limit=0):
    """Read the first `limit` records (all if 0) of an MNIST-style IDX image/label
    file pair into a Dataset."""
    n, images = _read_idx(images_path, IDX_IMAGES_MAGIC, limit)
    n_labels, labels = _read_idx(labels_path, IDX_LABELS_MAGIC, limit)
    if n != n_labels:
        raise IngestionError(f"count mismatch: {n} images in {images_path} vs "
                             f"{n_labels} labels in {labels_path}")
    return Dataset(images[:, None], _class_labels(labels, labels_path))


def load_cifar10(batch_paths, limit=0):
    """Read the first `limit` records (all if 0) of CIFAR-10 binary batch files
    (label byte + 3072 pixel bytes per record) into one buffer, which `images`
    views: the pixels are held once. Files after the limit's are not opened."""
    buf, labels = bytearray(), []
    for path in batch_paths:
        if limit and len(buf) == limit * CIFAR_RECORD_BYTES:
            break
        with _open_maybe_gzip(path) as f:
            raw = f.read(limit * CIFAR_RECORD_BYTES - len(buf) if limit else -1)
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise IngestionError(f"{path}: length {len(raw)} is not a multiple of "
                                 f"{CIFAR_RECORD_BYTES}")
        labels.append(_class_labels(
            np.frombuffer(raw, dtype=np.uint8)[::CIFAR_RECORD_BYTES], path))
        buf += raw
        del raw  # before the next file is read
    records = np.frombuffer(buf, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    return Dataset(records[:, 1:].reshape(-1, 3, 32, 32), np.concatenate(labels))


def dirichlet_partition(labels, clients, gamma, seed):
    """Split the positions of `labels` across clients with Dirichlet-sampled
    class mixes; returns one sorted index array per client.

    Each client draws a class distribution q ~ Dir(gamma * p); every class's
    examples are then multinomially distributed over clients proportionally to
    their q weight for that class. A repair pass moves one example from the
    largest shard into any shard that came out empty.
    """
    n, k = len(labels), clients
    if k > n:
        raise ConfigError(f"more clients ({k}) than examples ({n})")

    counts = np.bincount(labels)
    present = np.flatnonzero(counts)
    prior = counts[present] / n  # the empirical class distribution

    rng = np.random.default_rng(seed)
    q = rng.dirichlet(gamma * prior, size=k)  # (k, n_present)
    q = np.nan_to_num(q, nan=0.0)

    assigned = [[] for _ in range(k)]
    for ci, cls in enumerate(present):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        weights = q[:, ci]
        total = weights.sum()
        probs = weights / total if total > 0 else np.full(k, 1.0 / k)
        split = rng.multinomial(len(idx), probs)
        for parts, part in zip(assigned, np.split(idx, np.cumsum(split)[:-1])):
            parts.append(part)  # empty ones too, so no client concatenates an empty list

    shards = [np.sort(np.concatenate(parts)) for parts in assigned]
    for client in range(k):
        if shards[client].size == 0:
            donor = int(np.argmax([s.size for s in shards]))
            shards[client] = shards[donor][-1:]
            shards[donor] = shards[donor][:-1]
    return shards


def split_proxy(labels, fraction, seed):
    """Stratified split of the positions of `labels` into sorted index arrays
    (train, proxy): a proxy of round(fraction * n) rows with >= 1 proxy and >= 1
    training example per class, or ConfigError where no such proxy exists."""
    n = len(labels)
    counts = np.bincount(labels)
    present = np.flatnonzero(counts)
    sizes = counts[present]
    single = present[sizes == 1]
    if single.size:
        raise ConfigError(f"class {single[0]} has one example; a class needs two, one for "
                          "the proxy and one for training")
    total = int(round(fraction * n))
    exact = fraction * sizes
    take = np.maximum(np.floor(exact).astype(int), 1)
    # largest-remainder apportionment onto the rounded total, in whole passes:
    # each moves one example into (or out of) every class, in order, that keeps
    # one proxy and one training example after the move
    order = np.argsort(-(exact - np.floor(exact)), kind="stable")
    deficit = total - int(take.sum())
    while deficit:
        step = int(np.sign(deficit))
        moved = order[(take[order] + step >= 1) & (take[order] + step < sizes[order])]
        if moved.size == 0:
            raise ConfigError(
                f"proxy fraction {fraction} yields {total} of {n} examples; each of the "
                f"{present.size} classes needs one in the proxy and one for training")
        moved = moved[:abs(deficit)]
        take[moved] += step
        deficit -= step * moved.size

    rng = np.random.default_rng(seed)
    proxy_parts = []
    for ci, cls in enumerate(present):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        proxy_parts.append(idx[: take[ci]])
    proxy_rows = np.sort(np.concatenate(proxy_parts))
    mask = np.ones(n, dtype=bool)
    mask[proxy_rows] = False
    return np.flatnonzero(mask), proxy_rows


def iterate_batches(ds, rows, batch_size, seed):
    """One shuffled epoch over the rows `rows` of `ds`, final batch possibly short."""
    order = np.random.default_rng(seed).permutation(rows)
    for start in range(0, order.size, batch_size):
        chunk = order[start:start + batch_size]
        yield Batch(ds.pixels(chunk), ds.labels[chunk])
