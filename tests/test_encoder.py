import numpy as np
import pytest

from wmplanlab import envs
from wmplanlab.encoder import (encode, encode_dataset, encoder_hash,
                               make_identity, make_random_fourier)


def test_identity_encode():
    enc = make_identity(2)
    o = np.array([0.3, 0.7])
    assert np.array_equal(encode(enc, o), o)


def test_encode_dimension_check():
    enc = make_identity(2)
    with pytest.raises(ValueError, match="dim"):
        encode(enc, np.zeros(3))


def test_random_fourier_frozen_and_deterministic():
    enc = make_random_fourier(2, d_z=64, seed=3)
    o = np.array([0.1, 0.9])
    z1 = encode(enc, o)
    z2 = encode(enc, o)
    assert np.array_equal(z1, z2)
    assert z1.shape == (64,)
    assert not enc.W.flags.writeable
    enc_again = make_random_fourier(2, d_z=64, seed=3)
    assert np.array_equal(enc_again.W, enc.W)
    assert encoder_hash(enc_again) == encoder_hash(enc)


def test_random_fourier_norm_bound():
    # |sin|,|cos| <= 1 gives ||z|| <= sqrt(2 d_f) * sqrt(2/d_f) = 2
    enc = make_random_fourier(2, d_z=64, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = encode(enc, rng.uniform(-5, 5, size=2))
        assert np.linalg.norm(z) <= 2.0 + 1e-12


def test_random_fourier_batch_matches_single():
    enc = make_random_fourier(4, d_z=32, seed=2)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((10, 4))
    Z = encode(enc, batch)
    for i in range(10):
        assert np.array_equal(Z[i], encode(enc, batch[i]))


def test_random_fourier_injective_on_grid():
    # 64x64 grid of Wall2D positions: no two distinct points within 1e-6
    enc = make_random_fourier(2, d_z=64, seed=0)
    xs = np.linspace(0, 1, 64)
    pts = np.array([[x, y] for x in xs for y in xs])
    Z = encode(enc, pts)
    sq = np.sum(Z * Z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2 * (Z @ Z.T)
    np.fill_diagonal(d2, np.inf)
    assert np.sqrt(max(d2.min(), 0.0)) > 1e-6


def test_d_z_must_be_even():
    with pytest.raises(ValueError):
        make_random_fourier(2, d_z=7)


def test_encode_dataset_fills_latents(wall_spec):
    data = envs.generate_dataset(wall_spec, 3, 6, "random", seed=0)
    enc = make_random_fourier(2, d_z=16, seed=0)
    out = encode_dataset(enc, data)
    assert out.latents.shape == (3, 6, 16)
    assert np.array_equal(out.latents, encode(enc, data.obs))  # row by row
    assert out.obs is data.obs and out.actions is data.actions
    assert data.latents is None  # source dataset untouched


def _broadcast_sum_encode(enc, o):
    """The random-fourier embedding as one broadcast-sum expression."""
    phase = (np.asarray(o)[..., None, :] * enc.W).sum(axis=-1) + enc.b
    scale = np.sqrt(2.0 / (enc.d_z // 2))
    return scale * np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


@pytest.mark.parametrize("env", ["wall2d", "pointmass"])
def test_encode_has_the_bits_of_the_broadcast_sum(env, wall_spec, pm_spec):
    # the lab's two encoders (d_o 2 and 4, at the presets' d_z and sigma),
    # on visited states, on observations of every scale and on signed zeros
    spec = wall_spec if env == "wall2d" else pm_spec
    enc = make_random_fourier(spec.obs_dim, d_z=64, sigma=4.0, seed=0)
    rng = np.random.default_rng(5)
    visited = envs.generate_dataset(spec, 4, 12, "random", seed=1).obs
    scaled = (rng.standard_normal((60, spec.obs_dim))
              * 10.0 ** rng.uniform(-8, 3, size=(60, spec.obs_dim)))
    scaled[::4, 0], scaled[::3, -1] = 0.0, -0.0
    for batch in (visited, visited[0], scaled):
        assert np.array_equal(encode(enc, batch), _broadcast_sum_encode(enc, batch))
        for o in batch.reshape(-1, spec.obs_dim)[::7]:
            got, want = encode(enc, o), _broadcast_sum_encode(enc, o)
            assert got.shape == (64,) and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # signed zeros too
    assert encode(make_identity(spec.obs_dim), scaled).tobytes() == scaled.tobytes()
