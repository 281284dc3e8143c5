"""Dataset ingestion (IDX, CIFAR-10 binary), Dirichlet partitioning and batching."""

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestionError
from .nn import Batch

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64
    n_classes: int = 10

    def __len__(self):
        return self.images.shape[0]

    def subset(self, indices):
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx], self.n_classes)

    @property
    def input_shape(self):
        return tuple(self.images.shape[1:])


@dataclass
class ClientShard:
    client_id: int
    indices: np.ndarray
    label_histogram: np.ndarray  # per-class counts, length n_classes


def _open_maybe_gzip(path):
    with open(path, "rb") as f:
        gzipped = f.read(2) == b"\x1f\x8b"
    return gzip.open(path) if gzipped else open(path, "rb")


def _class_labels(raw, path):
    """uint8 label bytes as int64 class ids; IngestionError past the last class."""
    if raw.size and raw.max() >= Dataset.n_classes:
        raise IngestionError(f"label {raw.max()} in {path} is not a class "
                             f"(0-{Dataset.n_classes - 1})")
    return raw.astype(np.int64)


def _pixels(raw):
    """uint8 pixels as float32 in [0, 1], made without a float32 temporary."""
    return np.divide(raw, np.float32(255), dtype=np.float32)


def load_idx(images_path, labels_path):
    """Read an MNIST-style IDX image/label file pair into a Dataset."""
    with _open_maybe_gzip(images_path) as f:
        header = f.read(16)
        if len(header) < 16:
            raise IngestionError(f"truncated IDX header in {images_path}")
        magic, n, h, w = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise IngestionError(f"bad magic {magic:#x} in {images_path}")
        raw = f.read(n * h * w)
        if len(raw) != n * h * w:
            raise IngestionError(f"truncated pixel data in {images_path}")
    with _open_maybe_gzip(labels_path) as f:
        header = f.read(8)
        if len(header) < 8:
            raise IngestionError(f"truncated IDX header in {labels_path}")
        magic, n_labels = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise IngestionError(f"bad magic {magic:#x} in {labels_path}")
        label_raw = f.read(n_labels)
        if len(label_raw) != n_labels:
            raise IngestionError(f"truncated label data in {labels_path}")
    if n != n_labels:
        raise IngestionError(
            f"count mismatch: {n} images in {images_path} vs "
            f"{n_labels} labels in {labels_path}"
        )
    images = _pixels(np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w))
    labels = _class_labels(np.frombuffer(label_raw, dtype=np.uint8), labels_path)
    return Dataset(images, labels)


def load_cifar10(batch_paths):
    """Read CIFAR-10 binary batch files (label byte + 3072 pixel bytes per record)."""
    images, labels = [], []
    for path in batch_paths:
        with _open_maybe_gzip(path) as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise IngestionError(
                f"{path}: length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
            )
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        labels.append(_class_labels(rec[:, 0], path))
        images.append(_pixels(rec[:, 1:].reshape(-1, 3, 32, 32)))
    return Dataset(np.concatenate(images), np.concatenate(labels))


def dirichlet_partition(ds, clients, gamma, seed):
    """Split example indices across clients with Dirichlet-sampled class mixes.

    Each client draws a class distribution q ~ Dir(gamma * p); every class's
    examples are then multinomially distributed over clients proportionally to
    their q weight for that class. A repair pass moves one example from the
    largest shard into any shard that came out empty.
    """
    n, k = len(ds), clients
    if k < 1:
        raise ConfigError(f"client count must be >= 1, got {k}")
    if k > n:
        raise ConfigError(f"more clients ({k}) than examples ({n})")
    if not 0 < gamma < np.inf:
        raise ConfigError(f"concentration must be in (0, inf), got {gamma}")

    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    present = np.flatnonzero(counts)
    prior = counts[present] / n  # the empirical class distribution

    rng = np.random.default_rng(seed)
    q = rng.dirichlet(gamma * prior, size=k)  # (k, n_present)
    q = np.nan_to_num(q, nan=0.0)

    assigned = [[] for _ in range(k)]
    for ci, cls in enumerate(present):
        idx = rng.permutation(np.flatnonzero(ds.labels == cls))
        weights = q[:, ci]
        total = weights.sum()
        probs = weights / total if total > 0 else np.full(k, 1.0 / k)
        split = rng.multinomial(len(idx), probs)
        bounds = np.cumsum(split)[:-1]
        for client, part in enumerate(np.split(idx, bounds)):
            if part.size:
                assigned[client].append(part)

    shard_idx = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in assigned
    ]
    for client in range(k):
        if shard_idx[client].size == 0:
            donor = int(np.argmax([s.size for s in shard_idx]))
            shard_idx[client] = shard_idx[donor][-1:]
            shard_idx[donor] = shard_idx[donor][:-1]

    shards = []
    for client in range(k):
        hist = np.bincount(ds.labels[shard_idx[client]], minlength=ds.n_classes)
        shards.append(ClientShard(client, shard_idx[client], hist))
    return shards


def split_proxy(ds, fraction, seed):
    """Stratified split into (train, proxy) with >= 1 proxy example per class."""
    if not (0 < fraction < 1):
        raise ConfigError(f"proxy fraction must be in (0, 1), got {fraction}")
    n = len(ds)
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    present = np.flatnonzero(counts)
    total = int(round(fraction * n))
    if total < present.size:
        raise ConfigError(
            f"proxy fraction {fraction} yields {total} examples, fewer than "
            f"{present.size} classes"
        )

    exact = fraction * counts[present]
    take = np.clip(np.floor(exact).astype(int), 1, counts[present] - 1)
    remainder = exact - np.floor(exact)
    # largest-remainder apportionment onto the rounded total
    order = np.argsort(-remainder, kind="stable")
    deficit = total - int(take.sum())
    pos = 0
    while deficit != 0 and pos < 10 * present.size:
        ci = order[pos % present.size]
        if deficit > 0 and take[ci] < counts[present][ci] - 1:
            take[ci] += 1
            deficit -= 1
        elif deficit < 0 and take[ci] > 1:
            take[ci] -= 1
            deficit += 1
        pos += 1

    rng = np.random.default_rng(seed)
    proxy_parts = []
    for ci, cls in enumerate(present):
        idx = rng.permutation(np.flatnonzero(ds.labels == cls))
        proxy_parts.append(idx[: take[ci]])
    proxy_idx = np.sort(np.concatenate(proxy_parts))
    mask = np.ones(n, dtype=bool)
    mask[proxy_idx] = False
    train_idx = np.flatnonzero(mask)
    return ds.subset(train_idx), ds.subset(proxy_idx)


def iterate_batches(ds, shard, batch_size, seed):
    """One shuffled epoch over a shard, final batch possibly short."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(np.asarray(shard.indices))
    for start in range(0, order.size, batch_size):
        chunk = order[start:start + batch_size]
        yield Batch(ds.images[chunk], ds.labels[chunk])
