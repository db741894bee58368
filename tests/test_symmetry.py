"""Symmetries of the depth recursion: transforms of the inputs with a known effect on the kernels.

Each transform is an oracle that needs no second implementation.  Negating
every input leaves the Gram, and so every kernel, unchanged bit for bit.
Permuting the samples permutes the kernels.  Circular padding and a
symmetric window make every pixel block of a CNN roll or reverse with its
pixels, so its readouts stay, and normalization removes a common scale.
Those hold up to rounding: within 1e-14 of the largest entry (measured up
to 1e-15 at depths up to 32).

Reversal holds bit for bit on the blocks, for every activation:
``apply_A`` sums each +-beta pair first, and addition commutes, so a
reversed run rounds every window sum the same way.  Scaling holds for ReLU
too, whose T_dot moves like sqrt(1 - c) near c = 1 and would lift one ulp
of the input pixel variances to about 1e-10: ``_trajectory`` sets those
variances to q* exactly, as every later layer's are.
"""

import functools
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings, strategies as st

from ntkphase import (
    ActivationKernel,
    Hyperparams,
    ReadoutMode,
    analyze,
    init_cnn_kernels,
    normalize_inputs_cnn,
    propagate_cnn,
    readout,
)
from ntkphase.data import normals
from ntkphase.propagation import KernelPair
from ntkphase.sweep import _trajectory

REL = 1e-14
# (sigma_w2, sigma_b2): an ordered point and a chaotic one (relu has no finite q* past
# sigma_w2 = 2 with sigma_b2 > 0, so a point between)
POINTS = {"erf": ((0.5, 0.05), (4.0, 0.3)), "tanh": ((0.5, 0.05), (4.0, 0.3)),
          "relu": ((0.5, 0.05), (1.5, 0.3))}
CNN = ("cnn_f", "cnn_p")


@functools.lru_cache(maxsize=None)
def _qstar(activation, sigma_w2, sigma_b2):
    return analyze(Hyperparams(sigma_w2, sigma_b2, activation)).qstar


@dataclass(frozen=True)
class Run:
    h: Hyperparams
    X: np.ndarray  # (samples, features) for fcn, (samples, channels, pixels) for a CNN
    halfwidth: int
    depth: int

    @property
    def qstar(self):
        return _qstar(self.h.activation, self.h.sigma_w2, self.h.sigma_b2)

    def state(self, X=None):
        """The CNN state at ``depth`` with every pixel offset, for ``X`` (by default the run's)."""
        X = self.X if X is None else X
        k = ActivationKernel(self.h.activation, self.qstar)
        ck = init_cnn_kernels(normalize_inputs_cnn(X, self.qstar), self.halfwidth)
        (ck,) = propagate_cnn(ck, self.h, k, [self.depth])
        return ck

    def kernels(self, X=None):
        """The read-out NNGP and NTK at ``depth`` for ``X`` (this run's inputs by default)."""
        X = self.X if X is None else X
        (kp,) = _trajectory(self.h, self.qstar, X, [self.depth], self.halfwidth)
        return kp


@st.composite
def runs(draw, activations=tuple(POINTS), architectures=("fcn",) + CNN):
    activation = draw(st.sampled_from(activations))
    architecture = draw(st.sampled_from(architectures))
    sigma_w2, sigma_b2 = draw(st.sampled_from(POINTS[activation]))
    m = draw(st.integers(2, 4))
    if architecture == "fcn":  # more features than samples: no pair of inputs is collinear
        d, halfwidth, shape = 1, 1, (m, draw(st.integers(5, 8)))
    else:
        d = draw(st.integers(1, 6))
        halfwidth = draw(st.integers(0, (d - 1) // 2))
        shape = (m, draw(st.integers(3, 5)), d)
    h = Hyperparams(sigma_w2, sigma_b2, activation, architecture=architecture, spatial_size=d)
    return Run(h, normals(draw(st.integers(0, 2**16)), shape), halfwidth,
               draw(st.integers(1, 32)))


def assert_close(got, want):
    for kind in ("nngp", "ntk"):
        a, b = getattr(got, kind), getattr(want, kind)
        assert np.max(np.abs(a - b)) <= REL * np.max(np.abs(b)), kind


@settings(max_examples=15, deadline=None)
@given(runs())
def test_negating_the_inputs_changes_no_bit(run):
    got, want = run.kernels(-run.X), run.kernels()
    np.testing.assert_array_equal(got.nngp, want.nngp)
    np.testing.assert_array_equal(got.ntk, want.ntk)


@settings(max_examples=15, deadline=None)
@given(runs(), st.data())
def test_permuting_the_samples_permutes_the_kernels(run, data):
    perm = np.array(data.draw(st.permutations(range(run.X.shape[0]))))
    want, ix = run.kernels(), np.ix_(perm, perm)
    assert_close(run.kernels(run.X[perm]), KernelPair(want.nngp[ix], want.ntk[ix], want.depth))


def assert_blocks_follow(got, want, transform, exact=False):
    """Every pixel block of ``got`` is ``transform`` of ``want``'s (bit for bit if ``exact``),
    and so is every readout."""
    for kind in ("nngp", "ntk"):
        bound = REL * np.max(np.abs(getattr(want, kind)))
        for i in range(want.m):
            for j in range(i, want.m):
                block, want_block = got.block(i, j, kind), transform(want.block(i, j, kind))
                if exact:
                    np.testing.assert_array_equal(block, want_block, err_msg=f"{kind} ({i}, {j})")
                else:
                    assert np.max(np.abs(block - want_block)) <= bound, (kind, i, j)
    for mode in ReadoutMode:
        assert_close(readout(got, mode), readout(want, mode))


@settings(max_examples=15, deadline=None)
@given(runs(architectures=CNN), st.integers(1, 5))
def test_rolling_the_pixels_rolls_every_block(run, shift):
    assert_blocks_follow(run.state(np.roll(run.X, shift, axis=-1)), run.state(),
                         lambda B: np.roll(B, (shift, shift), axis=(0, 1)))


@settings(max_examples=15, deadline=None)
@given(runs(architectures=CNN))
def test_reversing_the_pixels_reverses_every_block(run):
    assert_blocks_follow(run.state(run.X[..., ::-1]), run.state(), lambda B: B[::-1, ::-1],
                         exact=True)


@settings(max_examples=15, deadline=None)
@given(runs(), st.sampled_from([0.25, 3.0, 7.0]))
def test_scaling_the_inputs_keeps_the_kernels(run, scale):
    assert_close(run.kernels(scale * run.X), run.kernels())


@settings(max_examples=10, deadline=None)
@given(runs(architectures=("cnn_p",)))
def test_a_diagonal_pairs_block_is_symmetric(run):
    ck = run.state()
    for i in range(ck.m):
        for kind in ("nngp", "ntk"):
            B = ck.block(i, i, kind)
            np.testing.assert_array_equal(B, B.T)
