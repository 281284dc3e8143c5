import gc
import gzip
import io
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

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

from conftest import cifar_bytes, gzip_damaged, save_idx, synth_dataset


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
    # the file's bytes, one byte a pixel
    assert ds.images.dtype == np.uint8 and ds.images.shape == (2, 1, 2, 2)
    assert ds.images.nbytes == 2 * 1 * 2 * 2
    assert np.array_equal(ds.images[:, 0], images)
    assert np.array_equal(np.unique(ds.pixels(slice(None))), [0.0, 1.0])
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


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "bad-header"])
def test_damaged_gzip_file_is_an_ingestion_error_naming_it(tmp_path, damage):
    # gzip raises EOFError, zlib.error or BadGzipFile, none of which `fedte run`
    # catches. Corrupt deflate data fails to inflate (pixels 0-39); the stored
    # blocks of random bytes inflate, and only their CRC, checked at the end of
    # the stream, fails (pixels 0-255, and the CIFAR record)
    rng = np.random.default_rng(0)
    for high in (40, 256):
        ip, lp = write_idx_pair(tmp_path, rng.integers(0, high, (50, 16, 16), dtype=np.uint8),
                                rng.integers(0, 10, 50, dtype=np.uint8), name=f"high{high}")
        damaged = gzip_damaged(ip, damage)
        with pytest.raises(IngestionError, match=f"^{re.escape(damaged)}: "):
            load_idx(damaged, lp)
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar_bytes(4))
    damaged = gzip_damaged(str(path), damage)
    with pytest.raises(IngestionError, match=f"^{re.escape(damaged)}: "):
        load_cifar10([damaged])


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
    for limit in (0, 1, 2):  # the header counts, whatever is read
        with pytest.raises(IngestionError, match="mismatch: 2 images"):
            load_idx(ip, str(lp), limit)


def test_idx_truncated(tmp_path):
    path = tmp_path / "trunc"
    path.write_bytes(struct.pack(">IIII", 2051, 5, 28, 28) + b"\x00" * 10)
    labels = tmp_path / "labels"
    labels.write_bytes(struct.pack(">II", 2049, 5) + b"\x00" * 5)
    with pytest.raises(IngestionError, match="truncated"):
        load_idx(str(path), str(labels))


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, (7, 1, 4, 4)).astype(np.uint8)
    ds = Dataset(raw.astype(np.float32) / 255.0, rng.integers(0, 10, 7).astype(np.int64))
    ip, lp = str(tmp_path / "imgs"), str(tmp_path / "labs")
    save_idx(ds, ip, lp)
    back = load_idx(ip, lp)
    assert back.images.dtype == np.uint8 and back.images.nbytes == 7 * 1 * 4 * 4
    assert np.array_equal(back.images, raw)
    assert np.array_equal(back.pixels(slice(None)), ds.images)
    assert np.array_equal(back.labels, ds.labels)


def test_cifar_single_record(tmp_path):
    record = bytes([6]) + bytes(range(256)) * 12
    path = tmp_path / "batch.bin"
    path.write_bytes(record)
    ds = load_cifar10([str(path)])
    assert ds.images.dtype == np.uint8 and ds.images.shape == (1, 3, 32, 32)
    assert ds.images.nbytes == 1 * 3 * 32 * 32
    assert ds.images.tobytes() == record[1:]
    assert ds.labels[0] == 6
    assert ds.pixels(slice(None)).max() <= 1.0


def assert_pixels_of_every_byte(ds, raw):
    """`ds.pixels` is bitwise `astype(np.float32) / 255.0` of the stored bytes,
    gathered by row indices and by a slice."""
    expected = raw.astype(np.float32) / 255.0
    for rows in (np.arange(len(ds))[::-1], slice(0, len(ds))):
        got = ds.pixels(rows)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), expected[rows].view(np.uint32))


def test_pixels_equal_float32_cast_divided_by_255(tmp_path):
    # the gather divides in one pass; the values are those of the two-pass
    # astype(np.float32) / 255.0 for every byte value, in each file format
    every = np.arange(256, dtype=np.uint8)
    images = np.tile(every, 4).reshape(4, 16, 16)
    plain = write_idx_pair(tmp_path, images, np.arange(4, dtype=np.uint8))
    gzipped = []
    for path in plain:
        with open(path, "rb") as src, gzip.open(path + ".gz", "wb") as dst:
            dst.write(src.read())
        gzipped.append(path + ".gz")
    for paths in (plain, gzipped):
        assert_pixels_of_every_byte(load_idx(*paths), images[:, None])

    path = tmp_path / "batch.bin"
    path.write_bytes((bytes([6]) + every.tobytes() * 12) * 2)
    cifar = load_cifar10([str(path)])
    assert_pixels_of_every_byte(cifar, np.tile(every, 24).reshape(2, 3, 32, 32))


def test_pixels_pass_float_storage_through():
    ds = synth_dataset(20, 3)
    rows = np.array([5, 0, 19])
    assert np.array_equal(ds.pixels(rows), ds.images[rows])
    assert ds.pixels(slice(2, 9)).base is ds.images  # a view, as images[2:9] is


def test_batches_convert_uint8_storage_as_they_are_gathered():
    raw = np.random.default_rng(8).integers(0, 256, (30, 1, 3, 3)).astype(np.uint8)
    labels = np.arange(30) % 10
    loaded, converted = Dataset(raw, labels), Dataset(raw.astype(np.float32) / 255.0, labels)
    rows = dirichlet_partition(labels, 2, 1.0, seed=4)[1]
    got = list(iterate_batches(loaded, rows, 4, seed=9))
    expected = list(iterate_batches(converted, rows, 4, seed=9))
    assert len(got) == len(expected) > 1
    for a, b in zip(got, expected):
        assert a.inputs.dtype == np.float32
        assert np.array_equal(a.inputs.view(np.uint32), b.inputs.view(np.uint32))
        assert np.array_equal(a.labels, b.labels)


def test_cifar_loading_holds_the_pixels_once(tmp_path):
    paths = []
    for i in range(4):
        path = tmp_path / f"b{i}.bin"
        path.write_bytes((bytes([i]) + bytes(range(256)) * 12) * 200)
        paths.append(str(path))
    tracemalloc.start()
    try:
        ds = load_cifar10(paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.images.shape == (800, 3, 32, 32)
    assert np.array_equal(ds.images[::200, 0, 0, :3], [[0, 1, 2]] * 4)
    assert np.array_equal(ds.labels, np.repeat(np.arange(4), 200))
    # the buffer of every file, and the file being appended to it
    assert peak < 1.5 * 4 * 200 * CIFAR_RECORD_BYTES


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
    shards = dirichlet_partition(ds.labels, clients, gamma, seed)
    assert len(shards) == clients
    merged = np.concatenate(shards)
    assert np.array_equal(np.sort(merged), np.arange(len(ds)))
    for rows in shards:
        assert rows.size > 0
        assert np.all(np.diff(rows) > 0)  # sorted
    hists = [np.bincount(ds.labels[rows], minlength=10) for rows in shards]
    assert np.array_equal(np.sum(hists, axis=0), np.bincount(ds.labels, minlength=10))


def test_partition_single_client():
    ds = synth_dataset(50, 1)
    (rows,) = dirichlet_partition(ds.labels, 1, 0.3, 9)
    assert np.array_equal(rows, np.arange(50))


def test_partition_too_many_clients():
    ds = synth_dataset(5, 0)
    with pytest.raises(ConfigError):
        dirichlet_partition(ds.labels, 10, 1.0, 0)


def test_high_concentration_matches_prior():
    # multinomial assignment noise scales as sqrt(K / (10 N)); N must be large
    # for the 0.02 L1 bound to hold at K=10
    n = 400_000
    for seed in range(5):
        labels = np.random.default_rng(seed).integers(0, 10, n).astype(np.int64)
        prior = np.bincount(labels, minlength=10) / n  # the partition's prior
        shards = dirichlet_partition(labels, 10, 1e6, seed)
        for rows in shards:
            q = np.bincount(labels[rows], minlength=10) / rows.size
            assert np.abs(q - prior).sum() < 0.02


def test_concentration_monotonicity_synthetic():
    deviations = {}
    for gamma in (0.1, 100.0):
        total = 0.0
        for seed in range(5):
            ds = synth_dataset(2000, seed)
            prior = np.bincount(ds.labels, minlength=10) / len(ds)
            shards = dirichlet_partition(ds.labels, 10, gamma, seed)
            total += np.mean([
                np.abs(np.bincount(ds.labels[rows], minlength=10) / rows.size - prior).sum()
                for rows in shards
            ])
        deviations[gamma] = total / 5
    assert deviations[100.0] < deviations[0.1]


def test_partition_determinism():
    ds = synth_dataset(300, 4)
    a = dirichlet_partition(ds.labels, 7, 0.5, 11)
    b = dirichlet_partition(ds.labels, 7, 0.5, 11)
    assert len(a) == len(b) == 7
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_split_proxy_conservation():
    ds = synth_dataset(500, 5)
    train_rows, proxy_rows = split_proxy(ds.labels, 0.1, seed=0)
    assert train_rows.size + proxy_rows.size == len(ds)
    assert np.bincount(ds.labels[proxy_rows], minlength=10).min() >= 1
    # sorted, disjoint, and together every row
    for rows in (train_rows, proxy_rows):
        assert np.all(np.diff(rows) > 0)
    merged = np.concatenate([train_rows, proxy_rows])
    assert np.array_equal(np.sort(merged), np.arange(len(ds)))


def test_split_proxy_balanced_toy():
    labels = np.repeat(np.arange(10), 2)
    train_rows, proxy_rows = split_proxy(labels, 0.5, seed=1)
    assert np.array_equal(np.bincount(labels[proxy_rows], minlength=10), np.ones(10))
    assert np.array_equal(np.bincount(labels[train_rows], minlength=10), np.ones(10))


def test_split_proxy_fraction_too_small():
    ds = synth_dataset(100, 7)
    with pytest.raises(ConfigError):
        split_proxy(ds.labels, 0.01, seed=0)  # 1 example cannot cover 10 classes


def test_split_proxy_rejects_a_class_of_one_example():
    # clipped to one example, class 2 would go to training only and the proxy
    # would hold classes 0 and 1: a class needs one proxy and one training example
    labels = np.array([0] * 10 + [1] * 10 + [2])
    with pytest.raises(ConfigError, match="class 2 has one example"):
        split_proxy(labels, 0.3, seed=0)
    _, proxy_rows = split_proxy(np.append(labels, 2), 0.3, seed=0)
    assert np.bincount(np.append(labels, 2)[proxy_rows]).tolist() == [3, 3, 1]


def test_split_proxy_stratified_count():
    ds = synth_dataset(6000, 8)
    _, proxy_rows = split_proxy(ds.labels, 0.01, seed=0)
    assert proxy_rows.size == 60
    assert np.bincount(ds.labels[proxy_rows], minlength=10).min() >= 1


def _reference_split_proxy(labels, fraction, seed):
    """split_proxy as it was with a per-class cyclic apportionment loop, kept
    as the oracle: it stops after 10 steps per class, with the deficit unpaid
    when no class has room, and then returns a proxy short of its total."""
    n = len(labels)
    counts = np.bincount(labels)
    present = np.flatnonzero(counts)
    total = int(round(fraction * n))
    exact = fraction * counts[present]
    take = np.clip(np.floor(exact).astype(int), 1, counts[present] - 1)
    remainder = exact - np.floor(exact)
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
        idx = rng.permutation(np.flatnonzero(labels == cls))
        proxy_parts.append(idx[: take[ci]])
    proxy_rows = np.sort(np.concatenate(proxy_parts))
    mask = np.ones(n, dtype=bool)
    mask[proxy_rows] = False
    return np.flatnonzero(mask), proxy_rows


def test_split_proxy_equals_the_cyclic_apportionment_or_refuses_where_it_fell_short():
    rng = np.random.default_rng(20)
    filled = short = 0
    for trial in range(3000):
        counts = rng.integers(2, 30, rng.integers(1, 11))
        labels = rng.permutation(np.repeat(np.arange(counts.size), counts))
        fraction = rng.uniform(0.01, 0.99)
        if int(round(fraction * labels.size)) < counts.size:
            continue  # fewer proxy rows than classes: both refuse
        reference = _reference_split_proxy(labels, fraction, trial)
        if reference[1].size == int(round(fraction * labels.size)):
            filled += 1
            for got, want in zip(split_proxy(labels, fraction, trial), reference):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        else:
            short += 1
            with pytest.raises(ConfigError, match="proxy fraction"):
                split_proxy(labels, fraction, trial)
    assert filled > 1000 and short > 100  # both outcomes are exercised


def test_split_proxy_mnist_class_counts_at_one_percent():
    # the real MNIST training set's class counts; the 1% proxy has deficit 4
    counts = [5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949]
    labels = np.repeat(np.arange(10), counts)
    _, proxy_rows = split_proxy(labels, 0.01, seed=0)
    assert np.bincount(labels[proxy_rows]).tolist() == [59, 67, 60, 61, 58, 54, 59, 63, 59, 60]


@pytest.mark.parametrize("fraction", [0.9, 0.99])
def test_split_proxy_refuses_a_proxy_that_leaves_a_class_no_training_example(fraction):
    # 5 examples per class leave room for a proxy of at most 40 of 50 rows; the
    # cyclic loop returned those 40 for a total of 45 or 50
    labels = np.repeat(np.arange(10), 5)
    with pytest.raises(ConfigError, match=f"proxy fraction {fraction} yields"):
        split_proxy(labels, fraction, seed=0)
    assert _reference_split_proxy(labels, fraction, 0)[1].size == 40


def _reference_dirichlet_partition(labels, clients, gamma, seed):
    """dirichlet_partition as it was, skipping empty parts, kept as the oracle."""
    n, k = len(labels), clients
    counts = np.bincount(labels)
    present = np.flatnonzero(counts)
    prior = counts[present] / n
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(gamma * prior, size=k)
    q = np.nan_to_num(q, nan=0.0)
    assigned = [[] for _ in range(k)]
    for ci, cls in enumerate(present):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        weights = q[:, ci]
        total = weights.sum()
        probs = weights / total if total > 0 else np.full(k, 1.0 / k)
        split = rng.multinomial(len(idx), probs)
        bounds = np.cumsum(split)[:-1]
        for client, part in enumerate(np.split(idx, bounds)):
            if part.size:
                assigned[client].append(part)
    shards = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in assigned
    ]
    for client in range(k):
        if shards[client].size == 0:
            donor = int(np.argmax([s.size for s in shards]))
            shards[client] = shards[donor][-1:]
            shards[donor] = shards[donor][:-1]
    return shards


@pytest.mark.parametrize("gamma", [1e-3, 1.0])
def test_partition_with_empty_parts_equals_the_partition_that_skipped_them(gamma):
    rng = np.random.default_rng(21)
    lacking = 0
    for seed in range(200):
        labels = rng.integers(0, rng.integers(1, 11), rng.integers(5, 120))
        k = int(rng.integers(1, min(labels.size, 12) + 1))
        got = dirichlet_partition(labels, k, gamma, seed)
        want = _reference_dirichlet_partition(labels, k, gamma, seed)
        assert len(got) == len(want) == k
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
        # a shard that misses a class the labels hold got an empty part of it
        lacking += any(np.unique(labels[a]).size < np.unique(labels).size for a in got)
    assert lacking > 100


def test_iterate_batches_sizes_and_conservation():
    ds = synth_dataset(200, 9)
    shards = dirichlet_partition(ds.labels, 2, 1.0, 0)
    rows = shards[0]
    if rows.size < 110:
        rows = shards[1]
    batches = list(iterate_batches(ds, rows, 50, seed=0))
    sizes = [b.labels.size for b in batches]
    assert sum(sizes) == rows.size
    assert all(s == 50 for s in sizes[:-1])
    merged = np.sort(np.concatenate([b.labels for b in batches]))
    assert np.array_equal(merged, np.sort(ds.labels[rows]))


def test_iterate_batches_determinism():
    ds = synth_dataset(120, 10)
    (rows,) = dirichlet_partition(ds.labels, 1, 1.0, 0)
    a = [b.labels for b in iterate_batches(ds, rows, 32, seed=5)]
    b = [b.labels for b in iterate_batches(ds, rows, 32, seed=5)]
    c = [b.labels for b in iterate_batches(ds, rows, 32, seed=6)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_batches_over_rows_equal_batches_over_a_copy_of_those_rows():
    # positions map to rows increasingly, so permuting rows gathers what
    # permuting positions into a copy of those rows gathers
    raw = np.random.default_rng(11).integers(0, 256, (90, 1, 3, 3)).astype(np.uint8)
    ds = Dataset(raw, np.arange(90) % 10)
    train_rows, _ = split_proxy(ds.labels, 0.2, seed=3)
    copy = ds.subset(train_rows)
    for pos in dirichlet_partition(copy.labels, 3, 0.5, seed=2):
        got = list(iterate_batches(ds, train_rows[pos], 7, seed=(5, 1)))
        expected = list(iterate_batches(copy, pos, 7, seed=(5, 1)))
        assert len(got) == len(expected) > 0
        for a, b in zip(got, expected):
            assert np.array_equal(a.inputs.view(np.uint32), b.inputs.view(np.uint32))
            assert np.array_equal(a.labels, b.labels)


def idx_files(tmp_path, n=12, gzipped=False, name="limit"):
    """An IDX pair of `n` random 5x4 images and their labels; gzipped on request."""
    rng = np.random.default_rng(n)
    paths = write_idx_pair(tmp_path, rng.integers(0, 256, (n, 5, 4), dtype=np.uint8),
                           rng.integers(0, 10, n, dtype=np.uint8), name=name)
    if not gzipped:
        return paths
    for path in paths:
        with open(path, "rb") as src, gzip.open(path + ".gz", "wb") as dst:
            dst.write(src.read())
    return tuple(path + ".gz" for path in paths)


def assert_first_rows(got, full, limit):
    """`got` is bitwise `full`, or its first `limit` rows as `fedte run` once cut them."""
    expected = full.subset(np.arange(min(limit, len(full)))) if limit else full
    assert got.images.shape == expected.images.shape
    assert got.images.tobytes() == expected.images.tobytes()
    assert got.labels.dtype == expected.labels.dtype
    assert got.labels.tobytes() == expected.labels.tobytes()


@pytest.mark.parametrize("gzipped", [False, True], ids=["raw", "gzip"])
@pytest.mark.parametrize("limit", [0, 1, 11, 12, 17])
def test_limited_idx_load_is_the_first_rows_of_the_full_load(tmp_path, gzipped, limit):
    paths = idx_files(tmp_path, n=12, gzipped=gzipped)
    assert_first_rows(load_idx(*paths, limit), load_idx(*paths), limit)


@pytest.mark.parametrize("limit", [0, 1, 3, 4, 5, 9, 10, 15])
def test_limited_cifar_load_is_the_first_rows_of_the_full_load(tmp_path, limit):
    paths = []
    for i, n in enumerate((4, 1, 5)):
        path = tmp_path / f"b{i}.bin"
        path.write_bytes(cifar_bytes(n, seed=i))
        paths.append(str(path))
    assert_first_rows(load_cifar10(paths, limit), load_cifar10(paths), limit)


class CountingFile(io.FileIO):
    """An unbuffered file that adds the bytes each read returns to `read_bytes`."""

    read_bytes = {}

    def read(self, size=-1):
        data = super().read(size)
        CountingFile.read_bytes[self.name] = CountingFile.read_bytes.get(self.name, 0) + len(data)
        return data


def test_limited_raw_idx_load_reads_the_header_and_its_records_only(tmp_path, monkeypatch):
    ip, lp = idx_files(tmp_path, n=12)
    monkeypatch.setattr(CountingFile, "read_bytes", {})
    monkeypatch.setattr("fedte.data.open", CountingFile, raising=False)
    load_idx(ip, lp, 3)
    # 2 bytes of each file to tell gzip from raw, then the header and 3 records
    assert CountingFile.read_bytes == {ip: 2 + 16 + 3 * 5 * 4, lp: 2 + 8 + 3}


def test_bytes_past_the_limit_of_a_raw_idx_file_are_not_checked(tmp_path):
    ip, lp = idx_files(tmp_path, n=12)
    labels = bytearray(Path(lp).read_bytes())
    labels[8 + 5] = 12  # row 5's label is not a class
    Path(lp).write_bytes(labels)
    assert len(load_idx(ip, lp, 5)) == 5
    with pytest.raises(IngestionError, match="label 12"):
        load_idx(ip, lp)
    with open(ip, "r+b") as f:
        f.truncate(16 + 7 * 5 * 4)  # 7 of 12 images
    assert len(load_idx(ip, lp, 5)) == 5
    with pytest.raises(IngestionError, match="truncated"):
        load_idx(ip, lp, 8)


@pytest.mark.parametrize("damage", ["truncated-trailer", "bad-crc"])
def test_a_damaged_gzip_stream_fails_under_any_limit(tmp_path, damage):
    # the stream is read to its end, so a limit does not skip its CRC and length
    ip, lp = idx_files(tmp_path, n=12, gzipped=True)
    packed = bytearray(Path(ip).read_bytes())
    if damage == "truncated-trailer":
        del packed[-8:]  # the CRC and the length
    else:
        packed[-8] ^= 0xFF
    Path(ip).write_bytes(packed)
    for limit in (0, 1, 12):
        with pytest.raises(IngestionError, match=f"^{re.escape(ip)}: "):
            load_idx(ip, lp, limit)

