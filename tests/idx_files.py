"""The one way the tests write IDX files: the format ``neve.data.load_idx`` reads."""

import struct

import numpy as np


def write_idx_pair(images_path, labels_path, images, labels):
    """Write u8 ``images`` of shape (n, h, w) as an IDX image file (magic
    0x00000803) and u8 ``labels`` of shape (m,) as an IDX label file (magic
    0x00000801); each header gives its own array's dimensions."""
    images, labels = np.asarray(images), np.asarray(labels)
    assert images.dtype == labels.dtype == np.uint8, (images.dtype, labels.dtype)
    assert images.ndim == 3 and labels.ndim == 1, (images.shape, labels.shape)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, *images.shape) + images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return images_path, labels_path
