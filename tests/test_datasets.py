"""IDX parsing, synthetic generators, stratified splits, clean-val guarantee."""

import struct

import numpy as np
import pytest

from losslearn.datasets import (
    Dataset,
    dataset_from_selector,
    load_idx,
    noisy_split,
    split,
    synth_blobs,
    synth_rings,
)
from losslearn.noise import noise_from_selector
from losslearn.seeding import label_checksum


def write_idx_images(path, images):
    """Hand-rolled IDX writer used as the parsing oracle."""
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, n, h, w))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 2049, len(labels)))
        fh.write(labels.tobytes())


@pytest.fixture
def tiny_idx(tmp_path):
    images = np.array(
        [
            [[0, 128, 255], [0, 0, 0], [255, 255, 255]],
            [[10, 20, 30], [40, 50, 60], [70, 80, 90]],
        ],
        dtype=np.uint8,
    )
    labels = np.array([1, 0], dtype=np.uint8)
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, images, labels


def test_load_idx_fixture(tiny_idx):
    ip, lp, images, labels = tiny_idx
    ds = load_idx(ip, lp)
    assert ds.features.shape == (2, 3, 3, 1)  # one grey channel
    assert ds.features.base.shape == (2, 3, 3)  # added as a view, not a copy
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    np.testing.assert_allclose(ds.features[..., 0], images / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)
    assert ds.num_classes == 2


def test_load_idx_wrong_magic(tmp_path, tiny_idx):
    ip, lp, _, _ = tiny_idx
    bad = tmp_path / "bad.idx"
    with open(bad, "wb") as fh:
        fh.write(struct.pack(">II", 2051, 2))
        fh.write(b"\x00\x01")
    with pytest.raises(ValueError, match="2051.*2049|bad magic"):
        load_idx(ip, bad)


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "imgs.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, 2, 3, 3))
        fh.write(b"\x00" * 5)  # needs 18
    lp = tmp_path / "lbls.idx"
    write_idx_labels(lp, [0, 1])
    with pytest.raises(ValueError, match="payload"):
        load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path, tiny_idx):
    ip, _, _, _ = tiny_idx
    lp = tmp_path / "three.idx"
    write_idx_labels(lp, [0, 1, 0])
    with pytest.raises(ValueError, match="2 images but 3 labels"):
        load_idx(ip, lp)


def test_downsample_exact_factor(tmp_path):
    # 4x4 image of constant blocks pools exactly to 2x2
    img = np.zeros((1, 4, 4), dtype=np.uint8)
    img[0, :2, :2] = 100
    img[0, 2:, 2:] = 200
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    write_idx_images(ip, img)
    write_idx_labels(lp, [0, ])
    # single-class file: patch labels so num_classes >= 2 via two images
    img2 = np.concatenate([img, img], axis=0)
    write_idx_images(ip, img2)
    write_idx_labels(lp, [0, 1])
    ds = load_idx(ip, lp, downsample=2)
    expected = np.array([[100, 0], [0, 200]]) / 255.0
    np.testing.assert_allclose(ds.features[0, ..., 0], expected)


def test_downsample_with_crop(tmp_path):
    # 28 -> 8 requires a center crop to 24 first
    rng = np.random.default_rng(3)
    imgs = rng.integers(0, 256, (2, 28, 28)).astype(np.uint8)
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    write_idx_images(ip, imgs)
    write_idx_labels(lp, [0, 1])
    ds = load_idx(ip, lp, downsample=8)
    assert ds.features.shape == (2, 8, 8, 1)
    # oracle: crop [2:26, 2:26], mean over 3x3 blocks
    block = imgs[0, 2:26, 2:26].astype(float) / 255.0
    oracle = block.reshape(8, 3, 8, 3).mean(axis=(1, 3))
    np.testing.assert_allclose(ds.features[0, ..., 0], oracle)


def test_load_idx_limit(tmp_path):
    imgs = np.zeros((10, 3, 3), dtype=np.uint8)
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    write_idx_images(ip, imgs)
    write_idx_labels(lp, np.arange(10) % 3)
    ds = load_idx(ip, lp, limit=6)
    assert len(ds.labels) == 6
    assert ds.num_classes == 3


def test_blobs_zero_spread_hits_centers():
    ds = synth_blobs(num_classes=3, per_class=10, spread=0.0, seed=1)
    # nearest-centroid on the scaled features is perfect
    centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
    d = np.linalg.norm(ds.features[:, None, :] - centroids[None], axis=2)
    assert np.array_equal(np.argmin(d, axis=1), ds.labels)
    # and every point coincides with its class centroid
    assert np.allclose(ds.features, centroids[ds.labels])


def test_blobs_deterministic():
    a = synth_blobs(4, 25, spread=0.3, seed=9)
    b = synth_blobs(4, 25, spread=0.3, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synth_blobs(4, 25, spread=0.3, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_blobs_shape_and_range():
    ds = synth_blobs(5, 20, dim=3, spread=0.4, seed=2)
    assert ds.features.shape == (100, 3)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert ds.num_classes == 5


def test_rings_radial_structure():
    ds = synth_rings(3, 200, seed=4)
    assert ds.features.shape == (600, 2)
    # radii ordered by class in the unscaled geometry; check via distance to
    # the scaled center (0.5, 0.5) ordering on class means
    r = np.linalg.norm(ds.features - 0.5, axis=1)
    means = [r[ds.labels == c].mean() for c in range(3)]
    assert means[0] < means[1] < means[2]


def test_rings_deterministic():
    a = synth_rings(3, 50, seed=11)
    b = synth_rings(3, 50, seed=11)
    np.testing.assert_array_equal(a.features, b.features)


def test_split_sizes_and_partition():
    ds = synth_blobs(5, 200, seed=0)
    sp = split(ds, val_fraction=0.2, seed=3)
    assert len(sp.val_indices) == 200
    combined = np.sort(np.concatenate([sp.train_indices, sp.val_indices]))
    np.testing.assert_array_equal(combined, np.arange(1000))
    # stratification: per-class val counts within 1 of the proportional target
    for c in range(5):
        count = int((ds.labels[sp.val_indices] == c).sum())
        assert abs(count - 0.2 * 200) < 1


def test_split_no_noise_keeps_labels():
    ds = synth_blobs(3, 50, seed=1)
    sp = split(ds, val_fraction=0.25, noise=None, seed=5)
    np.testing.assert_array_equal(sp.train_labels, ds.labels[sp.train_indices])
    np.testing.assert_array_equal(sp.val_labels, ds.labels[sp.val_indices])
    assert sp.provenance["flip_fraction"] == 0.0


def test_split_noise_flips_expected_fraction():
    ds = synth_blobs(10, 1000, spread=0.5, seed=2)
    noise = noise_from_selector("sym:0.8", 10)
    sp = split(ds, val_fraction=0.2, noise=noise, seed=7)
    n = len(sp.train_labels)
    observed = float(np.mean(sp.train_labels != ds.labels[sp.train_indices]))
    std = np.sqrt(0.8 * 0.2 / n)
    assert abs(observed - 0.8) < 3 * std
    assert sp.provenance["flip_fraction"] == pytest.approx(observed)


def test_split_val_labels_stay_clean():
    ds = synth_blobs(4, 100, seed=3)
    noise = noise_from_selector("sym:0.9", 4)
    sp = split(ds, val_fraction=0.3, noise=noise, seed=11)
    np.testing.assert_array_equal(sp.val_labels, ds.labels[sp.val_indices])
    assert sp.provenance["val_label_checksum"] == label_checksum(
        ds.labels[sp.val_indices]
    )


def test_split_deterministic():
    ds = synth_blobs(3, 60, seed=4)
    noise = noise_from_selector("asym:0.4", 3)
    a = split(ds, val_fraction=0.2, noise=noise, seed=13)
    b = split(ds, val_fraction=0.2, noise=noise, seed=13)
    np.testing.assert_array_equal(a.train_indices, b.train_indices)
    np.testing.assert_array_equal(a.train_labels, b.train_labels)
    c = split(ds, val_fraction=0.2, noise=noise, seed=14)
    assert not np.array_equal(a.train_labels, c.train_labels)


# the asym:0.3 matrix at C = 3 with the partners [2, 0, 1] in place of the cyclic ones
PAIRED = [[0.7, 0.0, 0.3], [0.3, 0.7, 0.0], [0.0, 0.3, 0.7]]


def matrix_selector(path, rows):
    """Write rows as a CSV file at path; the matrix:<path> selector that reads it."""
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return f"matrix:{path}"


@pytest.mark.parametrize(
    "dataset_sel, noise_sel, matrix, checksum, flip_fraction",
    [
        ("blobs:3:40:0.5", "sym:0.4", None,
         "5608d7d7cd41187259807a46527a38de9866cacc063ed1189f97c594c37aec70", 0.37777777777777777),
        ("blobs:3:40:0.5", "asym:0.3", None,
         "da5707c731114de983fff3c0fa119676f03448be82ac70d634c8541932633f61", 0.25555555555555554),
        ("blobs:3:40:0.5", None, PAIRED,
         "048b71518ce47adad50f269c987cd353cca481829a30a4e7cf1fed453f054121", 0.32222222222222224),
        ("blobs:10:20:0.5", "sym:0.4", None,
         "48731976dde56956c75686319dbc85fcf26f1ae2b03b54b4de16ec93246f4372", 0.3466666666666667),
        ("blobs:10:20:0.5", "asym:0.3", None,
         "a12a4ec09ac6ef6a5913ce415bfe9f7d2511febd6e32ed2309be711e380fb994", 0.2733333333333333),
    ],
    ids=["sym-3", "asym-3", "asym-3-paired", "sym-10", "asym-10"],
)
def test_noisy_split_label_bits_are_pinned(tmp_path, dataset_sel, noise_sel, matrix, checksum,
                                           flip_fraction):
    # the noisy training labels of each noise kind, a matrix file included: a
    # change to how noise is represented must keep these bits
    if matrix is not None:
        noise_sel = matrix_selector(tmp_path / "t.csv", matrix)
    sp = noisy_split(dataset_sel, noise_sel, data_seed=1, split_seed=2, val_fraction=0.25)
    assert label_checksum(sp.train_labels) == checksum
    assert sp.provenance["flip_fraction"] == flip_fraction


def test_split_rejects_tiny_class():
    ds = Dataset("t", np.zeros((3, 2)), np.array([0, 0, 1]), 2)
    with pytest.raises(ValueError, match="class 1"):
        split(ds, val_fraction=0.5, seed=0)


def test_split_rejects_bad_fraction():
    ds = synth_blobs(2, 10, seed=0)
    with pytest.raises(ValueError, match="val_fraction"):
        split(ds, val_fraction=1.0, seed=0)


@pytest.mark.parametrize("val_fraction, part", [(0.2, "validation"), (0.9, "training")])
def test_split_rejects_an_empty_part(val_fraction, part):
    # 2 examples per class: 0.4 rounds to 0 validation examples, 1.8 to 2
    ds = dataset_from_selector("blobs:3:2:0.5")
    with pytest.raises(ValueError, match=f"val_fraction {val_fraction} leaves no {part}"):
        split(ds, val_fraction=val_fraction, seed=0)


def test_cifar10_asymmetric_map_flips_a_fifth_of_the_labels(tmp_path):
    # Patrini et al.'s CIFAR-10 map, no permutation: truck -> automobile,
    # bird -> airplane, deer -> horse, cat <-> dog; five of ten classes flip
    # with probability 0.4, so about 0.2 of the labels
    partner = {9: 1, 2: 0, 4: 7, 3: 5, 5: 3}
    rows = np.eye(10)
    for true, observed in partner.items():
        rows[true, true], rows[true, observed] = 0.6, 0.4
    sp = noisy_split("blobs:10:100:0.5", matrix_selector(tmp_path / "t.csv", rows.tolist()),
                     data_seed=1, split_seed=2, val_fraction=0.2)
    assert abs(sp.provenance["flip_fraction"] - 0.2) < 0.03
    clean = dataset_from_selector("blobs:10:100:0.5", seed=1).labels[sp.train_indices]
    flipped = clean != sp.train_labels
    assert {(int(a), int(b)) for a, b in zip(clean[flipped], sp.train_labels[flipped])} \
        == set(partner.items())


def test_split_rejects_a_noise_matrix_of_another_class_count():
    ds = synth_blobs(3, 10, seed=0)
    message = r"^noise matrix has shape \(4, 4\), blobs:3:10:0.5 needs \(3, 3\)$"
    with pytest.raises(ValueError, match=message):
        split(ds, noise=noise_from_selector("sym:0.2", 4))


def test_dataset_validation():
    with pytest.raises(ValueError, match="fewer examples"):
        Dataset("t", np.zeros((2, 2)), np.array([0, 1]), 3)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        Dataset("t", np.zeros((2, 2)), np.array([0, 2]), 2)
    with pytest.raises(ValueError, match="finite"):
        Dataset("t", np.array([[np.inf, 0], [0, 0]]), np.array([0, 1]), 2)


def test_dataset_selector_blobs():
    ds = dataset_from_selector("blobs:3:20:0.5", seed=6)
    assert ds.num_classes == 3
    assert ds.features.shape == (60, 2)
    ds = dataset_from_selector("blobs:3:20:0.5:dim=4", seed=6)
    assert ds.features.shape == (60, 4)


@pytest.mark.parametrize(
    "spread, message",
    [
        ("inf", "^spread inf gives non-finite features$"),
        ("1e308", r"^spread 1e\+308 gives non-finite features$"),
        # mirrored noise would make blobs:3:20:-1 a second name for blobs:3:20:1
        ("-1", "^spread must be >= 0, got -1.0$"),
    ],
    ids=["inf", "1e308", "-1"],
)
def test_dataset_selector_blobs_out_of_range_spread(spread, message):
    # one clean error; the suite turns any numpy RuntimeWarning on the way into a failure
    with pytest.raises(ValueError, match=message):
        dataset_from_selector(f"blobs:3:20:{spread}")


def test_dataset_selector_rings():
    ds = dataset_from_selector("rings:2:30", seed=6)
    assert ds.features.shape == (60, 2)


def test_dataset_selector_idx(tiny_idx):
    ip, lp, _, _ = tiny_idx
    ds = dataset_from_selector(f"idx:{ip}:{lp}")
    assert ds.features.shape == (2, 3, 3, 1)


def test_dataset_name_carries_every_selector_value(tiny_idx):
    # two selectors name one dataset exactly when their names are equal
    assert dataset_from_selector("blobs:3:20:0.50:dim=2").name == "blobs:3:20:0.5"
    assert dataset_from_selector("blobs:3:20:0.5:dim=3").name == "blobs:3:20:0.5:dim=3"
    ip, lp, _, _ = tiny_idx
    ip, lp = ip.resolve(), lp.resolve()
    assert dataset_from_selector(f"idx:{ip}:{lp}").name == f"idx:{ip}:{lp}"
    ds = dataset_from_selector(f"idx:{ip}:{lp}:limit=2:downsample=1")
    assert ds.name == f"idx:{ip}:{lp}:downsample=1"  # the limit reads the whole file
    # a downsample to the images' own side leaves them as they are
    assert dataset_from_selector(f"idx:{ip}:{lp}:downsample=3").name == f"idx:{ip}:{lp}"


def test_idx_name_is_one_for_every_spelling_of_one_dataset(tmp_path, monkeypatch):
    # the files' resolved paths, and a limit only where it cuts rows
    write_idx_images(tmp_path / "imgs.idx", np.zeros((4, 3, 3)))
    write_idx_labels(tmp_path / "lbls.idx", [0, 1, 0, 1])
    monkeypatch.chdir(tmp_path)
    whole = f"idx:{(tmp_path / 'imgs.idx').resolve()}:{(tmp_path / 'lbls.idx').resolve()}"
    spellings = [whole, "idx:imgs.idx:lbls.idx", "idx:./imgs.idx:lbls.idx",
                 "idx:imgs.idx:lbls.idx:limit=4", "idx:imgs.idx:lbls.idx:limit=9"]
    assert {dataset_from_selector(sel).name for sel in spellings} == {whole}
    assert dataset_from_selector("idx:./imgs.idx:lbls.idx:limit=3").name == whole + ":limit=3"


def test_zero_ratio_noise_is_no_noise_in_the_provenance():
    ds = synth_blobs(3, 20, seed=1)
    # the provenance holds the transition matrix the labels were drawn from
    for sel in ("none", "sym:0", "asym:0", "sym:0.0"):
        t = split(ds, noise=noise_from_selector(sel, 3), seed=2).provenance["transition"]
        np.testing.assert_array_equal(t, np.eye(3))
    noisy = split(ds, noise=noise_from_selector("sym:0.2", 3), seed=2)
    np.testing.assert_array_equal(noisy.provenance["transition"],
                                  [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])


def test_dataset_selector_errors(tiny_idx):
    with pytest.raises(ValueError, match="unknown dataset kind"):
        dataset_from_selector("moons:2:10")
    with pytest.raises(ValueError, match="blobs selector"):
        dataset_from_selector("blobs:3:20")
    with pytest.raises(ValueError, match="bad selector option"):
        dataset_from_selector("blobs:3:20:0.5:frobnicate=1")
    with pytest.raises(ValueError, match="repeated selector option"):
        dataset_from_selector("blobs:3:20:0.5:dim=3:dim=4")
    with pytest.raises(ValueError, match="need at least 2 classes"):
        dataset_from_selector("rings:0:5")
    ip, lp, _, _ = tiny_idx
    for option in ("downsample=0", "downsample=-2", "limit=0", "limit=-5"):
        name, _, value = option.partition("=")
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
            dataset_from_selector(f"idx:{ip}:{lp}:{option}")


def test_noise_selector():
    sym = np.full((6, 6), 0.08)
    np.fill_diagonal(sym, 0.6)
    np.testing.assert_array_equal(noise_from_selector("sym:0.4", num_classes=6), sym)
    np.testing.assert_array_equal(noise_from_selector("asym:0.2", num_classes=3),
                                  [[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]])
    np.testing.assert_array_equal(noise_from_selector("none", num_classes=5), np.eye(5))
    message = r"^bad noise selector 'gauss:0.1' \(use sym:<r>, asym:<r>, matrix:<path>, none\)$"
    with pytest.raises(ValueError, match=message):
        noise_from_selector("gauss:0.1", num_classes=3)
