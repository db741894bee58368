"""Deterministic synthetic datasets for sweeps and tests.

Randomness comes from the 64-bit counter-based Philox generator with
normals drawn by an explicit Box-Muller transform, so identical seeds give
bit-identical datasets across platforms and thread counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["DataGenerator", "SyntheticDataset", "normals", "center_labels", "generate_data",
           "shift_register_inputs"]


class DataGenerator(str, enum.Enum):
    GAUSSIAN_IID = "gaussian_iid"
    TWO_CLUSTERS = "two_clusters"


@dataclass(frozen=True)
class SyntheticDataset:
    X_train: np.ndarray
    X_test: np.ndarray
    Y: np.ndarray  # centered train labels, one column


def normals(seed: int, shape, stream: int = 0) -> np.ndarray:
    """Standard normals from Philox counters via Box-Muller."""
    n = int(np.prod(shape, dtype=np.int64))
    gen = Generator(Philox(key=np.uint64(seed) ^ np.uint64(stream)))
    u = gen.random((n, 2))
    u1 = 1.0 - u[:, 0]  # map [0,1) to (0,1] so the log is finite
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u[:, 1])
    return z.reshape(shape)


def center_labels(Y_raw: np.ndarray) -> np.ndarray:
    """Subtract each label column's mean."""
    Y = np.asarray(Y_raw, dtype=float)
    return Y - Y.mean(axis=0, keepdims=True)


def _balanced_labels(m: int) -> np.ndarray:
    if m % 2:
        raise ValueError("balanced two-class labels need an even m")
    y = np.ones((m, 1))
    y[m // 2 :] = -1.0
    return y


def generate_data(
    m: int,
    n_test: int,
    n_features: int,
    generator: DataGenerator = DataGenerator.GAUSSIAN_IID,
    seed: int = 0,
) -> SyntheticDataset:
    """Raw (unnormalized) inputs and centered balanced labels.

    Rows are scaled to the working variance by the propagation layer, so
    only the directions matter here.  TwoClusters draws each class around
    an opposite cluster center.
    """
    generator = DataGenerator(generator)
    if generator is DataGenerator.GAUSSIAN_IID:
        X = normals(seed, (m + n_test, n_features))
    else:
        center = normals(seed, (n_features,), stream=0xC << 56)
        signs = np.vstack([_balanced_labels(m), _balanced_labels_test(n_test)])
        X = signs * center[None, :] + 0.5 * normals(seed, (m + n_test, n_features), stream=1)
    return SyntheticDataset(X_train=X[:m], X_test=X[m:], Y=center_labels(_balanced_labels(m)))


def _balanced_labels_test(n: int) -> np.ndarray:
    # test rows alternate classes; n may be odd since labels are unused
    y = np.ones((n, 1))
    y[1::2] = -1.0
    return y


def cnn_inputs(m: int, channels: int, spatial_size: int, seed: int = 0) -> np.ndarray:
    """Raw (samples, channels, pixels) stacks for the convolutional paths."""
    return normals(seed, (m, channels, spatial_size), stream=2)


def shift_register_inputs(m: int, spatial_size: int, seed: int = 0) -> np.ndarray:
    """Translation-invariant inputs: each sample's channels are all the
    circular shifts of one base signal, so every pixel-pixel input block is
    exactly circulant (and stays so under propagation)."""
    base = normals(seed, (m, spatial_size), stream=3)
    d = spatial_size
    X = np.empty((m, d, d))
    for shift in range(d):
        X[:, shift, :] = np.roll(base, -shift, axis=1)
    return X
