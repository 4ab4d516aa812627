"""Dataset loading and splitting: IDX image files, synthetic generators.

Features are scaled to [0, 1]. Splits are stratified by class; label noise,
given as its transition matrix, is applied to the training half only, and the
clean validation labels are checksummed into the split provenance so
downstream artifacts can prove they were never touched.
"""

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .noise import corrupt, noise_from_selector
from .seeding import derive_seed, label_checksum

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049


@dataclass(frozen=True)
class Dataset:
    name: str
    features: np.ndarray  # (n, d) flat or (n, H, W, ch) images
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        n = len(self.labels)
        if self.features.shape[0] != n:
            raise ValueError("feature/label count mismatch")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if n < self.num_classes:
            raise ValueError("fewer examples than classes")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")


@dataclass(frozen=True)
class DatasetSplit:
    train_features: np.ndarray
    train_labels: np.ndarray  # possibly noise-corrupted
    val_features: np.ndarray
    val_labels: np.ndarray  # always clean
    train_indices: np.ndarray
    val_indices: np.ndarray
    num_classes: int
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------


def _read_idx(path, expected_magic, expected_ndim):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 + 4 * expected_ndim:
        raise ValueError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise ValueError(f"{path}: bad magic {magic}, expected {expected_magic}")
    sizes = struct.unpack(f">{expected_ndim}I", raw[4 : 4 + 4 * expected_ndim])
    payload = raw[4 + 4 * expected_ndim :]
    count = int(np.prod(sizes))
    if len(payload) < count:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, need {count}")
    data = np.frombuffer(payload[:count], dtype=np.uint8)
    return data.reshape(sizes)


def _avg_pool(images, target):
    """Average-pool square images down to target x target.

    When the side is not a multiple of the target, the image is center-cropped
    to the largest multiple first (28 -> 24 for an 8x8 target).
    """
    n, h, w = images.shape
    if h != w:
        raise ValueError("downsampling expects square images")
    if target > h:
        raise ValueError(f"cannot upsample {h}x{h} to {target}x{target}")
    factor = h // target
    crop = factor * target
    off = (h - crop) // 2
    images = images[:, off : off + crop, off : off + crop]
    return images.reshape(n, target, factor, target, factor).mean(axis=(2, 4))


def load_idx(images_path, labels_path, downsample=None, limit=None):
    """Images and labels from IDX files. The name holds the files' resolved
    paths, a limit only where it cuts rows and a downsample only where it
    changes the side, so two selectors name one dataset exactly when their
    names are equal."""
    for name, value in (("downsample", downsample), ("limit", limit)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    images = _read_idx(images_path, IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    if limit is not None and limit >= len(labels):
        limit = None  # the whole file
    if images.shape[1:] == (downsample, downsample):
        downsample = None  # the images as they are
    images = images[:limit]
    labels = labels[:limit]
    features = images.astype(float) / 255.0
    if downsample is not None:
        features = _avg_pool(features, int(downsample))
    labels = labels.astype(np.int64)
    options = (("downsample", downsample), ("limit", limit))
    return Dataset(
        name=f"idx:{Path(images_path).resolve()}:{Path(labels_path).resolve()}"
        + "".join(f":{key}={value}" for key, value in options if value is not None),
        features=features[..., None],  # (n, H, W, 1): one grey channel
        labels=labels,
        num_classes=int(labels.max()) + 1,
    )


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def _minmax_scale(x):
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return (x - lo) / span


def synth_blobs(num_classes, per_class, dim=2, spread=0.5, seed=0):
    """Gaussian clusters centered on a unit circle (extra dims center at 0)."""
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if spread < 0:  # NaN passes on to the non-finite check below
        raise ValueError(f"spread must be >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    centers = np.zeros((num_classes, dim))
    centers[:, 0] = np.cos(angles)
    centers[:, 1] = np.sin(angles)
    labels = np.repeat(np.arange(num_classes), per_class)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        noise = spread * rng.standard_normal((len(labels), dim))
        features = _minmax_scale(centers[labels] + noise)
    if not np.isfinite(features).all():
        raise ValueError(f"spread {spread} gives non-finite features")
    return Dataset(
        name=f"blobs:{num_classes}:{per_class}:{spread}" + (f":dim={dim}" if dim != 2 else ""),
        features=features,
        labels=labels,
        num_classes=num_classes,
    )


def synth_rings(num_classes, per_class, seed=0):
    """Concentric 2-D annuli, one radius per class; not linearly separable."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    radii = (labels + 1.0) / num_classes
    jitter = rng.normal(0.0, 1.0 / (6.0 * num_classes), len(labels))
    theta = rng.uniform(0.0, 2 * np.pi, len(labels))
    r = radii + jitter
    features = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return Dataset(
        name=f"rings:{num_classes}:{per_class}",
        features=_minmax_scale(features),
        labels=labels,
        num_classes=num_classes,
    )


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


class ValFractionError(ValueError):
    """A val_fraction outside (0, 1), or one that leaves a split part empty."""


def split(ds, val_fraction=0.2, noise=None, seed=0):
    """Stratified train/val split. noise is the C x C transition matrix the train
    labels are drawn through (None: the identity); any other matrix corrupts them."""
    if not 0.0 < val_fraction < 1.0:
        raise ValFractionError(f"val_fraction must lie in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(derive_seed(seed, "split"))
    val_parts = []
    train_parts = []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if len(idx) < 2:
            raise ValueError(f"class {c} has fewer than 2 examples")
        perm = rng.permutation(idx)
        n_val = int(round(val_fraction * len(idx)))
        val_parts.append(perm[:n_val])
        train_parts.append(perm[n_val:])
    val_idx = np.sort(np.concatenate(val_parts))
    train_idx = np.sort(np.concatenate(train_parts))
    for part, idx in (("validation", val_idx), ("training", train_idx)):
        if not len(idx):
            raise ValFractionError(
                f"val_fraction {val_fraction} leaves no {part} examples in {ds.name}"
            )

    eye = np.eye(ds.num_classes)
    t = eye if noise is None else np.asarray(noise, dtype=float)
    if t.shape != eye.shape:
        raise ValueError(f"noise matrix has shape {t.shape}, {ds.name} needs {eye.shape}")
    train_labels = ds.labels[train_idx].copy()
    flip_fraction = 0.0
    if not np.array_equal(t, eye):
        train_labels, flipped = corrupt(train_labels, t, derive_seed(seed, "noise"))
        flip_fraction = float(flipped.mean())

    val_labels = ds.labels[val_idx].copy()
    provenance = {
        "dataset": ds.name,
        "transition": t,  # the identity without noise
        "flip_fraction": flip_fraction,
        "val_label_checksum": label_checksum(val_labels),
    }
    return DatasetSplit(
        train_features=ds.features[train_idx],
        train_labels=train_labels,
        val_features=ds.features[val_idx],
        val_labels=val_labels,
        train_indices=train_idx,
        val_indices=val_idx,
        num_classes=ds.num_classes,
        provenance=provenance,
    )


def noisy_split(dataset_sel, noise_sel, *, data_seed, split_seed, val_fraction):
    """Build a dataset from its selector and split it with noisy train labels.

    Fails unless the validation labels are the clean source labels: training
    may corrupt labels, scoring must never see them.
    """
    ds = dataset_from_selector(dataset_sel, seed=data_seed)
    noise = noise_from_selector(noise_sel, ds.num_classes)
    sp = split(ds, val_fraction=val_fraction, noise=noise, seed=split_seed)
    if label_checksum(sp.val_labels) != sp.provenance["val_label_checksum"]:
        raise RuntimeError(f"validation labels for {dataset_sel} were modified")
    if not np.array_equal(sp.val_labels, ds.labels[sp.val_indices]):
        raise RuntimeError(f"validation labels for {dataset_sel} differ from source")
    return sp


# ---------------------------------------------------------------------------
# Selector strings
# ---------------------------------------------------------------------------


def dataset_from_selector(text, seed=0):
    """Build a dataset from a CLI selector.

    blobs:<C>:<per_class>:<spread>   optional trailing key=value: dim=<d>
    rings:<C>:<per_class>
    idx:<images>:<labels>            optional: downsample=<side>, limit=<n>
    """
    parts = text.split(":")
    kind = parts[0]
    if kind == "blobs":
        if len(parts) < 4:
            raise ValueError("blobs selector needs blobs:<C>:<per_class>:<spread>")
        extras = _parse_extras(parts[4:], {"dim"})
        return synth_blobs(
            num_classes=int(parts[1]),
            per_class=int(parts[2]),
            spread=float(parts[3]),
            dim=int(extras.get("dim", 2)),
            seed=seed,
        )
    if kind == "rings":
        if len(parts) != 3:
            raise ValueError("rings selector needs rings:<C>:<per_class>")
        return synth_rings(int(parts[1]), int(parts[2]), seed=seed)
    if kind == "idx":
        if len(parts) < 3:
            raise ValueError("idx selector needs idx:<images>:<labels>")
        extras = _parse_extras(parts[3:], {"downsample", "limit"})
        return load_idx(
            parts[1],
            parts[2],
            downsample=_maybe_int(extras.get("downsample")),
            limit=_maybe_int(extras.get("limit")),
        )
    raise ValueError(f"unknown dataset kind {kind!r} (known: blobs, rings, idx)")


def _parse_extras(parts, allowed):
    extras = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep or key not in allowed:
            raise ValueError(f"bad selector option {part!r}")
        if key in extras:
            raise ValueError(f"repeated selector option {part!r}")
        extras[key] = value
    return extras


def _maybe_int(value):
    return None if value is None else int(value)
