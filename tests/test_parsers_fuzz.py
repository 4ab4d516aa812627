"""Fuzzed parsers: bad input raises a ValueError subclass and nothing else.

The command line maps a ValueError from a parser to exit code 2; any other
exception would read as a run-time failure (exit 3). Every size and option is
drawn from a small range, so no example allocates a large array.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslearn.bench import BenchmarkGrid, config_from_dict, loss_from_selector
from losslearn.datasets import dataset_from_selector, load_idx
from losslearn.network import arch_from_selector, init
from losslearn.noise import noise_from_selector
from losslearn.reference import REFERENCE_KINDS
from losslearn.search import MetaConfig
from losslearn.taylor import loss_from_json, loss_to_json, mse_embedding

SMALL = st.integers(-3, 40)
CLASSES = st.integers(-3, 12)
# one selector field: mostly small numbers, sometimes text no parser wants
TOKEN = st.one_of(
    SMALL.map(str),
    st.floats(-3, 40).map(str),
    st.sampled_from(["", "x", "nan", "1e1", "2.5", "-0"]),
)
JSON_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    SMALL,
    st.floats(-3, 40),
    st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=3),
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
FUZZ = settings(max_examples=150, deadline=None)


def accepts_or_rejects(parse, *args):
    """Call parse; a ValueError (any subclass) is a clean rejection."""
    try:
        parse(*args)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def idx_pair(tmp_path_factory):
    """Six 4 x 4 images of classes 0, 1, 2, 0, 1, 2."""
    root = tmp_path_factory.mktemp("idx")
    images, labels = root / "images.idx", root / "labels.idx"
    pixels = np.random.default_rng(0).integers(0, 256, (6, 4, 4), dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", 2051, 6, 4, 4) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 2049, 6) + bytes([0, 1, 2, 0, 1, 2]))
    return images, labels


def options(keys):
    return st.lists(
        st.tuples(st.sampled_from(keys), TOKEN).map("=".join) | TOKEN, max_size=3
    )


@FUZZ
@given(classes=CLASSES, per_class=SMALL, spread=st.floats(-3, 40), extras=options(["dim"]))
def test_blobs_selectors_raise_only_value_errors(classes, per_class, spread, extras):
    fields = ["blobs", str(classes), str(per_class), str(spread), *extras]
    accepts_or_rejects(dataset_from_selector, ":".join(fields))


@FUZZ
@given(classes=CLASSES, per_class=SMALL)
def test_rings_selectors_raise_only_value_errors(classes, per_class):
    accepts_or_rejects(dataset_from_selector, f"rings:{classes}:{per_class}")


@FUZZ
@given(kind=st.sampled_from(["blobs", "rings", "moons", ""]), fields=st.lists(TOKEN, max_size=5))
def test_free_form_selectors_raise_only_value_errors(kind, fields):
    accepts_or_rejects(dataset_from_selector, ":".join([kind, *fields]))


@FUZZ
@given(data=st.data(), extras=options(["downsample", "limit", "dim"]))
def test_idx_selectors_raise_only_value_errors(idx_pair, data, extras):
    images, labels = idx_pair
    paths = data.draw(st.sampled_from([[images, labels], [labels, images]]))
    accepts_or_rejects(dataset_from_selector, ":".join(["idx", *map(str, paths), *extras]))


@FUZZ
@given(sizes=st.tuples(SMALL, SMALL, SMALL), payload=st.binary(max_size=200),
       labels=st.binary(max_size=40))
def test_idx_files_raise_only_value_errors(idx_pair, sizes, payload, labels):
    root = idx_pair[0].parent
    images_path, labels_path = root / "fuzz_images.idx", root / "fuzz_labels.idx"
    n, h, w = (max(s, 0) for s in sizes)
    images_path.write_bytes(struct.pack(">IIII", 2051, n, h, w) + payload)
    labels_path.write_bytes(struct.pack(">II", 2049, len(labels)) + labels)
    accepts_or_rejects(load_idx, images_path, labels_path)


@FUZZ
@given(widths=st.lists(SMALL, max_size=3), dim=st.integers(1, 40), classes=st.integers(2, 12))
def test_mlp_selectors_build_a_network_or_raise_value_errors(widths, dim, classes):
    try:
        spec = arch_from_selector("mlp:" + ",".join(map(str, widths)), (dim,), classes)
    except ValueError:
        return
    init(spec, 0)  # what the selector accepts must also build a network


@FUZZ
@given(kind=st.sampled_from(["mlp", "linear", "cnn", "x"]), fields=st.lists(TOKEN, max_size=2),
       side=SMALL, classes=st.integers(2, 12))
def test_architecture_selectors_raise_only_value_errors(kind, fields, side, classes):
    text = ":".join([kind, *fields])
    accepts_or_rejects(arch_from_selector, text, (side, side, 1), classes)


@FUZZ
@given(kind=st.sampled_from(["sym", "asym", "matrix", "none", "x"]),
       fields=st.lists(TOKEN, max_size=2), classes=SMALL)
def test_noise_selectors_raise_only_value_errors(kind, fields, classes):
    accepts_or_rejects(noise_from_selector, ":".join([kind, *fields]), classes)


@FUZZ
@given(rows=st.lists(st.lists(TOKEN, max_size=4), max_size=4), tail=st.sampled_from(["", "\n"]),
       classes=st.integers(2, 4))
def test_matrix_files_raise_only_value_errors(tmp_path_factory, rows, tail, classes):
    path = tmp_path_factory.getbasetemp() / "fuzz_matrix.csv"
    path.write_text("\n".join(",".join(row) for row in rows) + tail)
    accepts_or_rejects(noise_from_selector, f"matrix:{path}", classes)


@FUZZ
@given(kind=st.sampled_from(sorted(REFERENCE_KINDS) + ["", ".", "x"]),
       extras=options(["q", "epsilon", "weight", "mode", "alpha", "beta", "A"]))
def test_loss_selectors_raise_only_value_errors(kind, extras):
    accepts_or_rejects(loss_from_selector, ":".join([kind, *extras]))


LOSS_DOC = json.loads(loss_to_json(mse_embedding()))


@FUZZ
@given(edits=st.dictionaries(st.sampled_from(sorted(LOSS_DOC) + ["x"]), JSON_VALUE, max_size=3),
       coefficient=st.dictionaries(st.sampled_from(["a", "b", "value"]), JSON_VALUE, max_size=3),
       dropped=st.sets(st.sampled_from(sorted(LOSS_DOC))))
def test_loss_files_raise_only_value_errors(edits, coefficient, dropped):
    doc = dict(LOSS_DOC, coefficients=[dict(c) for c in LOSS_DOC["coefficients"]])
    doc["coefficients"][0].update(coefficient)
    doc.update(edits)
    for key in dropped:
        doc.pop(key)
    accepts_or_rejects(loss_from_json, json.dumps(doc))


SEARCH_DOC = {
    "mode": "AR", "architectures": ["mlp:8"], "datasets": ["blobs:3:20:0.5"],
    "noise": "sym:0.4", "max_generations": 2, "master_seed": 1,
}
GRID_DOC = {"cells": [["mlp:8", "blobs:3:20:0.5", "sym:0.4"]], "losses": ["ce"]}
FIELDS = {
    MetaConfig: sorted(MetaConfig.__dataclass_fields__) + ["x"],
    BenchmarkGrid: sorted(BenchmarkGrid.__dataclass_fields__) + ["x"],
}


@FUZZ
@given(data=st.data(), cls=st.sampled_from([MetaConfig, BenchmarkGrid]))
def test_configs_raise_only_value_errors(data, cls):
    doc = dict(SEARCH_DOC if cls is MetaConfig else GRID_DOC)
    doc.update(data.draw(st.dictionaries(st.sampled_from(FIELDS[cls]), JSON_VALUE, max_size=3)))
    for key in data.draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        doc.pop(key)
    accepts_or_rejects(config_from_dict, cls, doc, "config")
