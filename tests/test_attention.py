import numpy as np
import pytest

from attnatr.attention import (CbamBlock, EcaBlock, SeBlock, eca_kernel_size,
                               make_attention)
from attnatr.backbone import desk_config
from attnatr.layers import LayerError
from attnatr.rng import SplitMix64
from attnatr.tensor import Tensor
from helpers import check_gradients


def randt(shape, seed=0, requires_grad=False):
    return Tensor(np.random.default_rng(seed).normal(size=shape),
                  requires_grad=requires_grad)


def np_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# SE


def test_se_zero_weights_halves_input():
    block = SeBlock(6, reduction=2, rng=SplitMix64(1))
    block.fc1.weight.data[:] = 0.0
    block.fc2.weight.data[:] = 0.0
    u = randt((2, 6, 4, 4), seed=2)
    out = block.forward(u).data
    assert np.abs(out - 0.5 * u.data).max() < 1e-12


def test_se_squeeze_of_channel_constant():
    # channel-constant input squeezes to exactly that constant per channel
    levels = np.array([0.3, -1.5, 2.0, 0.0])
    u = np.broadcast_to(levels[None, :, None, None], (1, 4, 5, 5)).copy()
    z = Tensor(u).mean(axes=(2, 3))
    assert np.array_equal(z.data, levels[None, :])


def test_se_matches_staged_numpy_pipeline():
    block = SeBlock(8, reduction=2, rng=SplitMix64(3))
    u = randt((1, 8, 4, 4), seed=4)
    got = block.forward(u).data

    z = u.data.mean(axis=(2, 3))                    # squeeze
    h = np.maximum(z @ block.fc1.weight.data.T, 0)  # first FC + relu
    s = np_sigmoid(h @ block.fc2.weight.data.T)     # second FC + sigmoid
    want = u.data * s[:, :, None, None]             # recalibration
    assert np.abs(got - want).max() < 1e-12


def test_se_squeeze_positive_scaling_equivariance():
    u = randt((2, 5, 3, 3), seed=5)
    lam = 3.7
    z1 = (Tensor(lam * u.data)).mean(axes=(2, 3)).data
    z0 = u.mean(axes=(2, 3)).data
    assert np.allclose(z1, lam * z0, rtol=1e-15, atol=0)


def test_se_channel_mismatch():
    with pytest.raises(LayerError, match="channels"):
        SeBlock(4, reduction=2, rng=SplitMix64(6)).forward(randt((1, 5, 3, 3)))


def test_se_parameter_gradients():
    block = SeBlock(6, reduction=2, rng=SplitMix64(7))
    u = randt((2, 6, 4, 4), seed=8, requires_grad=True)
    check_gradients(lambda: (block.forward(u) * u).sum(),
                    [u, block.fc1.weight, block.fc2.weight], tol=1e-4)


def test_se_small_channel_clamp():
    # channels below the reduction ratio still get a one-wide bottleneck
    block = SeBlock(4, reduction=16, rng=SplitMix64(9))
    assert block.fc1.weight.shape == (1, 4)
    assert block.forward(randt((1, 4, 2, 2), seed=10)).shape == (1, 4, 2, 2)


# ---------------------------------------------------------------------------
# ECA


@pytest.mark.parametrize("channels,gamma,expected", [
    (64, 64, 1),
    (64, 32, 3),    # ceil gives 2, bumped odd
    (128, 8, 17),   # ceil gives 16, bumped odd
    (1, 1, 1),
    (48, 16, 3),
    (33, 16, 3),
])
def test_eca_kernel_size_rule(channels, gamma, expected):
    assert eca_kernel_size(channels, gamma) == expected


def test_eca_zero_weights_halves_input():
    block = EcaBlock(8, gamma=4, rng=SplitMix64(11))
    block.conv.weight.data[:] = 0.0
    u = randt((2, 8, 3, 3), seed=12)
    assert np.abs(block.forward(u).data - 0.5 * u.data).max() < 1e-12


def test_eca_k1_is_per_channel_gate():
    block = EcaBlock(6, gamma=6, rng=SplitMix64(13))  # k = 1
    assert block.kernel_size == 1
    w = float(block.conv.weight.data.reshape(-1)[0])
    u = randt((2, 6, 4, 4), seed=14)
    z = u.data.mean(axis=(2, 3))
    want = u.data * np_sigmoid(w * z)[:, :, None, None]
    assert np.abs(block.forward(u).data - want).max() < 1e-12


def test_eca_matches_staged_numpy_pipeline():
    block = EcaBlock(16, gamma=8, rng=SplitMix64(15))  # k = 3
    assert block.kernel_size == 3
    u = randt((1, 16, 3, 3), seed=16)
    got = block.forward(u).data

    z = u.data.mean(axis=(2, 3))
    w = block.conv.weight.data.reshape(-1)
    zp = np.pad(z, ((0, 0), (1, 1)))
    pre = np.zeros_like(z)
    for c in range(16):
        for j in range(3):
            pre[:, c] += w[j] * zp[:, c + j]
    want = u.data * np_sigmoid(pre)[:, :, None, None]
    assert np.abs(got - want).max() < 1e-12


def test_eca_channel_mismatch():
    with pytest.raises(LayerError, match="channels"):
        EcaBlock(8, gamma=4, rng=SplitMix64(17)).forward(randt((1, 4, 3, 3)))


def test_eca_parameter_gradients():
    block = EcaBlock(8, gamma=4, rng=SplitMix64(18))
    u = randt((2, 8, 4, 4), seed=19, requires_grad=True)
    check_gradients(lambda: (block.forward(u) * u).sum(),
                    [u, block.conv.weight], tol=1e-4)


# ---------------------------------------------------------------------------
# CBAM


def make_cbam(channels=4, reduction=2, ks=3, seed=20):
    return CbamBlock(channels, reduction, ks, rng=SplitMix64(seed))


def test_cbam_channel_zero_weights():
    block = make_cbam()
    block.fc1.weight.data[:] = 0.0
    block.fc2.weight.data[:] = 0.0
    f = randt((2, 4, 5, 5), seed=21)
    m_c, f_c = block.channel_attention(f)
    assert np.all(m_c.data == 0.5)
    assert np.abs(f_c.data - 0.5 * f.data).max() < 1e-12


def test_cbam_channel_constant_input_doubles_mlp():
    block = make_cbam(channels=3, reduction=1, seed=22)
    levels = np.array([0.7, -0.2, 1.1])
    f = Tensor(np.broadcast_to(levels[None, :, None, None], (1, 3, 4, 4)).copy())
    m_c, _ = block.channel_attention(f)
    # avg and max descriptors coincide, so the gate sees twice one MLP pass
    h = np.maximum(levels @ block.fc1.weight.data.T, 0)
    want = np_sigmoid(2.0 * (h @ block.fc2.weight.data.T))
    assert np.abs(m_c.data.reshape(-1) - want).max() < 1e-12


def test_cbam_shared_mlp_order_invariance():
    block = make_cbam(seed=23)
    f = randt((2, 4, 5, 5), seed=24)
    avg_d = f.mean(axes=(2, 3))
    max_d = f.max(axes=(2, 3))
    a = block._mlp(avg_d).data + block._mlp(max_d).data
    b = block._mlp(max_d).data + block._mlp(avg_d).data
    assert np.array_equal(a, b)


def test_cbam_spatial_zero_weights():
    block = make_cbam(seed=25)
    block.spatial.weight.data[:] = 0.0
    f_c = randt((2, 4, 5, 5), seed=26)
    m_s, f_s = block.spatial_attention(f_c)
    assert np.all(m_s.data == 0.5)
    assert np.abs(f_s.data - 0.5 * f_c.data).max() < 1e-12


def test_cbam_spatial_single_channel_degenerate():
    block = make_cbam(channels=1, reduction=1, seed=27)
    f = randt((1, 1, 4, 4), seed=28)
    mean_plane = f.mean(axes=1, keepdims=True).data
    max_plane = f.max(axes=1, keepdims=True).data
    assert np.array_equal(mean_plane, f.data)
    assert np.array_equal(max_plane, f.data)


def test_cbam_spatial_stats_match_pixel_loops():
    f = randt((1, 4, 5, 5), seed=29)
    mean_plane = f.mean(axes=1, keepdims=True).data[0, 0]
    max_plane = f.max(axes=1, keepdims=True).data[0, 0]
    for i in range(5):
        for j in range(5):
            assert mean_plane[i, j] == f.data[0, :, i, j].mean()
            assert max_plane[i, j] == f.data[0, :, i, j].max()


def test_cbam_zero_weights_quarters_input():
    block = make_cbam(seed=30)
    for _, p in block.named_params():
        p.data[:] = 0.0
    f = randt((2, 4, 6, 6), seed=31)
    assert np.abs(block.forward(f).data - 0.25 * f.data).max() < 1e-12


def test_cbam_forward_is_channel_then_spatial():
    block = make_cbam(seed=32)
    f = randt((2, 4, 6, 6), seed=33)
    _, f_c = block.channel_attention(f)
    _, f_s = block.spatial_attention(f_c)
    assert np.array_equal(block.forward(f).data, f_s.data)


def test_cbam_full_parameter_gradients():
    block = make_cbam(seed=34)
    f = randt((1, 4, 6, 6), seed=35, requires_grad=True)
    params = [p for _, p in block.named_params()]
    check_gradients(lambda: block.forward(f).sum(), params + [f], tol=1e-4)


def test_named_params_reach_every_sub_layer():
    # SE: two bias-free FCs; ECA: one 1D kernel; CBAM: two FCs plus the spatial conv
    rng = SplitMix64(0)
    for block, count in ((SeBlock(4, reduction=2, rng=rng), 2),
                         (EcaBlock(4, gamma=2, rng=rng), 1),
                         (CbamBlock(4, reduction=2, spatial_kernel=3, rng=rng), 3)):
        names = [name for name, _ in block.named_params()]
        assert names == [f"{i}.weight" for i in range(count)]


def test_cbam_even_spatial_kernel_rejected():
    with pytest.raises(LayerError, match="odd"):
        CbamBlock(4, reduction=2, spatial_kernel=4, rng=SplitMix64(0))


# ---------------------------------------------------------------------------
# shared block invariants


BLOCKS = {
    "se": lambda c, seed: SeBlock(c, reduction=4, rng=SplitMix64(seed)),
    "eca": lambda c, seed: EcaBlock(c, gamma=4, rng=SplitMix64(seed)),
    "cbam": lambda c, seed: CbamBlock(c, reduction=4, spatial_kernel=3,
                                      rng=SplitMix64(seed)),
}


@pytest.mark.parametrize("kind", list(BLOCKS))
def test_block_invariants_on_random_inputs(kind):
    rng = np.random.default_rng(36)
    for trial in range(50):
        c = int(rng.integers(1, 9))
        block = BLOCKS[kind](c, trial)
        shape = (int(rng.integers(1, 3)), c, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        u = Tensor(rng.normal(size=shape) * float(rng.uniform(0.1, 10)))
        out = block.forward(u)
        assert out.shape == u.shape
        assert np.abs(out.data).max() <= np.abs(u.data).max() + 1e-15


def test_gate_values_strictly_inside_unit_interval():
    rng = np.random.default_rng(37)
    for trial in range(20):
        f = Tensor(rng.normal(size=(2, 6, 4, 4)) * 5.0)
        block = CbamBlock(6, 2, 3, rng=SplitMix64(trial))
        m_c, f_c = block.channel_attention(f)
        m_s, _ = block.spatial_attention(f_c)
        for gates in (m_c.data, m_s.data):
            assert np.all(gates > 0.0) and np.all(gates < 1.0)
        se = SeBlock(6, 2, rng=SplitMix64(100 + trial))
        z = f.mean(axes=(2, 3))
        s = np_sigmoid(np.maximum(z.data @ se.fc1.weight.data.T, 0)
                       @ se.fc2.weight.data.T)
        assert np.all(s > 0.0) and np.all(s < 1.0)


def test_make_attention_factory():
    # each block takes its hyperparameters from the config; ModelConfig.validate
    # rejects an unknown kind (test_backbone.test_invalid_config_lists_offending_fields)
    def make(kind):
        cfg = desk_config(kind, reduction=2, eca_gamma=4, spatial_kernel=3)
        return make_attention(cfg, 8, SplitMix64(0))

    assert make("none") is None
    se, eca, cbam = make("se"), make("eca"), make("cbam")
    assert type(se) is SeBlock and se.fc1.weight.shape == (4, 8)
    assert type(eca) is EcaBlock and eca.kernel_size == 3
    assert type(cbam) is CbamBlock and cbam.fc1.weight.shape == (4, 8)
    assert cbam.spatial.weight.shape == (1, 2, 3, 3)
