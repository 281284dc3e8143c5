import gc
import gzip
import struct
import warnings

import numpy as np
import pytest

from fedte.data import (
    CIFAR_RECORD_BYTES,
    Dataset,
    dirichlet_partition,
    iterate_batches,
    load_cifar10,
    load_idx,
    split_proxy,
)
from fedte.errors import ConfigError, IngestionError

from conftest import save_idx, synth_dataset


def write_idx_pair(tmp_path, images, labels, name="fixture"):
    ip = tmp_path / f"{name}-images"
    lp = tmp_path / f"{name}-labels"
    n, h, w = images.shape
    ip.write_bytes(struct.pack(">IIII", 2051, n, h, w) + images.tobytes())
    lp.write_bytes(struct.pack(">II", 2049, n) + labels.tobytes())
    return str(ip), str(lp)


def test_idx_two_image_fixture(tmp_path):
    images = np.array([[[0, 255], [255, 0]], [[255, 255], [0, 0]]], dtype=np.uint8)
    labels = np.array([3, 7], dtype=np.uint8)
    ds = load_idx(*write_idx_pair(tmp_path, images, labels))
    assert ds.images.shape == (2, 1, 2, 2)
    assert np.array_equal(np.unique(ds.images), [0.0, 1.0])
    assert np.array_equal(ds.labels, [3, 7])


def test_gzipped_idx_pair_loads_like_plain_and_closes_its_files(tmp_path):
    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    plain = write_idx_pair(tmp_path, images, np.array([3, 7], dtype=np.uint8))
    gzipped = []
    for path in plain:
        with open(path, "rb") as src, gzip.open(path + ".gz", "wb") as dst:
            dst.write(src.read())
        gzipped.append(path + ".gz")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ds = load_idx(*gzipped)
        gc.collect()  # an unclosed file warns when it is collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    expected = load_idx(*plain)
    assert np.array_equal(ds.images, expected.images)
    assert np.array_equal(ds.labels, expected.labels)


def test_idx_bad_magic(tmp_path):
    images = np.zeros((1, 2, 2), dtype=np.uint8)
    labels = np.zeros(1, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    bad = tmp_path / "bad"
    bad.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + images.tobytes())
    with pytest.raises(IngestionError, match="magic"):
        load_idx(str(bad), lp)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    ip, _ = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
    lp = tmp_path / "mismatch-labels"
    lp.write_bytes(struct.pack(">II", 2049, 3) + labels.tobytes())
    with pytest.raises(IngestionError, match="mismatch"):
        load_idx(ip, str(lp))


def test_idx_truncated(tmp_path):
    path = tmp_path / "trunc"
    path.write_bytes(struct.pack(">IIII", 2051, 5, 28, 28) + b"\x00" * 10)
    labels = tmp_path / "labels"
    labels.write_bytes(struct.pack(">II", 2049, 5) + b"\x00" * 5)
    with pytest.raises(IngestionError, match="truncated"):
        load_idx(str(path), str(labels))


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(
        (rng.integers(0, 256, (7, 1, 4, 4)).astype(np.float32) / 255.0),
        rng.integers(0, 10, 7).astype(np.int64),
    )
    ip, lp = str(tmp_path / "imgs"), str(tmp_path / "labs")
    save_idx(ds, ip, lp)
    back = load_idx(ip, lp)
    assert np.array_equal(back.images, ds.images)
    assert np.array_equal(back.labels, ds.labels)


def test_cifar_single_record(tmp_path):
    record = bytes([6]) + bytes(range(256)) * 12
    path = tmp_path / "batch.bin"
    path.write_bytes(record)
    ds = load_cifar10([str(path)])
    assert ds.images.shape == (1, 3, 32, 32)
    assert ds.labels[0] == 6
    assert ds.images.max() <= 1.0


def test_pixels_equal_float32_cast_divided_by_255(tmp_path):
    # the loaders divide in one pass; the values are those of the two-pass
    # astype(np.float32) / 255.0 for every byte value
    every = np.arange(256, dtype=np.uint8)
    images = np.tile(every, 4).reshape(4, 16, 16)
    ds = load_idx(*write_idx_pair(tmp_path, images, np.arange(4, dtype=np.uint8)))
    expected = images[:, None].astype(np.float32) / 255.0
    assert ds.images.dtype == np.float32
    assert np.array_equal(ds.images.view(np.uint32), expected.view(np.uint32))

    path = tmp_path / "batch.bin"
    path.write_bytes(bytes([6]) + every.tobytes() * 12)
    cifar = load_cifar10([str(path)])
    expected = np.tile(every, 12).reshape(1, 3, 32, 32).astype(np.float32) / 255.0
    assert cifar.images.dtype == np.float32
    assert np.array_equal(cifar.images.view(np.uint32), expected.view(np.uint32))


def test_cifar_truncated_record(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * (CIFAR_RECORD_BYTES - 1))
    with pytest.raises(IngestionError, match="multiple"):
        load_cifar10([str(path)])


def test_label_past_the_last_class_names_the_file(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8),
                            np.array([3, 10], dtype=np.uint8))
    with pytest.raises(IngestionError, match=f"label 10 in {lp}"):
        load_idx(ip, lp)
    path = tmp_path / "batch.bin"
    path.write_bytes(bytes([255]) + bytes(CIFAR_RECORD_BYTES - 1))
    with pytest.raises(IngestionError, match=f"label 255 in {path}"):
        load_cifar10([str(path)])


def test_cifar_multiple_batches(tmp_path):
    paths = []
    for i in range(3):
        p = tmp_path / f"b{i}.bin"
        p.write_bytes((bytes([i]) + bytes(3072)) * 4)
        paths.append(str(p))
    ds = load_cifar10(paths)
    assert len(ds) == 12
    assert np.array_equal(np.unique(ds.labels), [0, 1, 2])


@pytest.mark.parametrize("clients,gamma,seed", [
    (5, 0.1, 0), (10, 1.0, 1), (3, 100.0, 2), (20, 0.5, 3),
])
def test_partition_conservation(clients, gamma, seed):
    ds = synth_dataset(400, seed)
    shards = dirichlet_partition(ds, clients, gamma, seed)
    assert len(shards) == clients
    merged = np.concatenate([s.indices for s in shards])
    assert np.array_equal(np.sort(merged), np.arange(len(ds)))
    for shard in shards:
        assert shard.indices.size > 0
        hist = np.bincount(ds.labels[shard.indices], minlength=10)
        assert np.array_equal(hist, shard.label_histogram)
        assert shard.label_histogram.sum() == shard.indices.size


def test_partition_single_client():
    ds = synth_dataset(50, 1)
    (shard,) = dirichlet_partition(ds, 1, 0.3, 9)
    assert np.array_equal(np.sort(shard.indices), np.arange(50))


def test_partition_too_many_clients():
    ds = synth_dataset(5, 0)
    with pytest.raises(ConfigError):
        dirichlet_partition(ds, 10, 1.0, 0)


def test_high_concentration_matches_prior():
    # multinomial assignment noise scales as sqrt(K / (10 N)); N must be large
    # for the 0.02 L1 bound to hold at K=10
    n = 400_000
    for seed in range(5):
        labels = np.random.default_rng(seed).integers(0, 10, n).astype(np.int64)
        ds = Dataset(np.zeros((n, 1, 1, 1), dtype=np.float32), labels)
        prior = np.bincount(labels, minlength=10) / n  # the partition's prior
        shards = dirichlet_partition(ds, 10, 1e6, seed)
        for shard in shards:
            q = shard.label_histogram / shard.indices.size
            assert np.abs(q - prior).sum() < 0.02


def test_concentration_monotonicity_synthetic():
    deviations = {}
    for gamma in (0.1, 100.0):
        total = 0.0
        for seed in range(5):
            ds = synth_dataset(2000, seed)
            prior = np.bincount(ds.labels, minlength=10) / len(ds)
            shards = dirichlet_partition(ds, 10, gamma, seed)
            total += np.mean([
                np.abs(s.label_histogram / s.indices.size - prior).sum()
                for s in shards
            ])
        deviations[gamma] = total / 5
    assert deviations[100.0] < deviations[0.1]


def test_partition_determinism():
    ds = synth_dataset(300, 4)
    a = dirichlet_partition(ds, 7, 0.5, 11)
    b = dirichlet_partition(ds, 7, 0.5, 11)
    for x, y in zip(a, b):
        assert np.array_equal(x.indices, y.indices)


def test_split_proxy_conservation():
    ds = synth_dataset(500, 5)
    train, proxy = split_proxy(ds, 0.1, seed=0)
    assert len(train) + len(proxy) == len(ds)
    assert np.bincount(proxy.labels, minlength=10).min() >= 1
    # disjointness: pixel multisets concatenate back to the original
    merged = np.concatenate([train.images, proxy.images])
    assert merged.shape == ds.images.shape


def test_split_proxy_balanced_toy():
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(10), 2).astype(np.int64)
    ds = Dataset(rng.random((20, 1, 4, 4)).astype(np.float32), labels)
    train, proxy = split_proxy(ds, 0.5, seed=1)
    assert np.array_equal(np.bincount(proxy.labels, minlength=10), np.ones(10))
    assert np.array_equal(np.bincount(train.labels, minlength=10), np.ones(10))


def test_split_proxy_fraction_too_small():
    ds = synth_dataset(100, 7)
    with pytest.raises(ConfigError):
        split_proxy(ds, 0.01, seed=0)  # 1 example cannot cover 10 classes


def test_split_proxy_stratified_count():
    ds = synth_dataset(6000, 8)
    _, proxy = split_proxy(ds, 0.01, seed=0)
    assert len(proxy) == 60
    assert np.bincount(proxy.labels, minlength=10).min() >= 1


def test_iterate_batches_sizes_and_conservation():
    ds = synth_dataset(200, 9)
    shards = dirichlet_partition(ds, 2, 1.0, 0)
    shard = shards[0]
    if shard.indices.size < 110:
        shard = shards[1]
    batches = list(iterate_batches(ds, shard, 50, seed=0))
    sizes = [b.labels.size for b in batches]
    assert sum(sizes) == shard.indices.size
    assert all(s == 50 for s in sizes[:-1])
    merged = np.sort(np.concatenate([b.labels for b in batches]))
    assert np.array_equal(merged, np.sort(ds.labels[shard.indices]))


def test_iterate_batches_determinism():
    ds = synth_dataset(120, 10)
    (shard,) = dirichlet_partition(ds, 1, 1.0, 0)
    a = [b.labels for b in iterate_batches(ds, shard, 32, seed=5)]
    b = [b.labels for b in iterate_batches(ds, shard, 32, seed=5)]
    c = [b.labels for b in iterate_batches(ds, shard, 32, seed=6)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
