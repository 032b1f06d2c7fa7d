import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moegrow import (
    ValidationError,
    load_tokens,
    make_synthetic_corpus,
    save_tokens,
    unigram_entropy,
)
from moegrow.corpus import zipf_distribution


def _digest(tokens: np.ndarray) -> str:
    return hashlib.blake2b(tokens.tobytes(), digest_size=16).hexdigest()


def _reference_corpus(seed, vocab, n_tokens, order, favorite_mass):
    """The chain walked one token at a time, with the library's RNG calls."""
    rng = np.random.default_rng(seed)
    popularity = zipf_distribution(vocab)
    favorites = rng.choice(vocab, size=1 << 16, p=popularity)
    coefs = [int(c) | 1 for c in rng.integers(1, 1 << 30, size=order)]
    emit_favorite = rng.random(n_tokens) < favorite_mass
    exploration = rng.choice(vocab, size=n_tokens, p=popularity)
    context = [int(t) for t in rng.choice(vocab, size=order, p=popularity)]
    out = np.empty(n_tokens, dtype=np.int64)
    for t in range(n_tokens):
        if emit_favorite[t]:
            h = sum(c * tok for c, tok in zip(coefs, context)) % (1 << 16)
            token = int(favorites[h])
        else:
            token = int(exploration[t])
        out[t] = token
        context = context[1:] + [token]
    return out


def test_zipf_is_a_distribution():
    p = zipf_distribution(100)
    assert p.shape == (100,)
    assert np.all(p > 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # rank 1 carries twice the mass of rank 2 under exponent 1
    assert p[0] / p[1] == pytest.approx(2.0, rel=1e-12)


def test_corpus_shape_and_range(corpus):
    assert corpus.dtype == np.int64
    assert corpus.shape == (50000,)
    assert corpus.min() >= 0
    assert corpus.max() < 256


def test_corpus_fixture_stream_is_pinned(corpus):
    assert _digest(corpus) == "9995fa504677a3d08c3d87a467b9335b"


@pytest.mark.parametrize("seed, digest", [
    (1, "67d1cc84a384aa153b298ce1eda069a0"),
    (2, "f7c5e67b5ca659f26d5e9b70ca82e2a7"),
    (3, "4076d813760037e4710098c89a8504c9"),
])
def test_benchmark_shaped_stream_is_pinned(seed, digest):
    assert _digest(make_synthetic_corpus(seed, 256, 36000, favorite_mass=0.7)) == digest


def test_higher_order_streams_are_pinned():
    second = make_synthetic_corpus(seed=6, vocab=64, n_tokens=5000, order=2)
    third = make_synthetic_corpus(seed=7, vocab=300, n_tokens=4000, order=3, favorite_mass=0.9)
    assert _digest(second) == "5d98e313c8c839568fbd2ccd254adbb4"
    assert _digest(third) == "9b03db243a35c2888ed2ba704c4f372f"


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    vocab=st.integers(2, 1000),
    n_tokens=st.integers(1, 4000),
    order=st.integers(1, 3),
    favorite_mass=st.floats(0.0, 0.999),
)
def test_corpus_equals_the_reference_loop(seed, vocab, n_tokens, order, favorite_mass):
    got = make_synthetic_corpus(seed, vocab, n_tokens, order=order, favorite_mass=favorite_mass)
    want = _reference_corpus(seed, vocab, n_tokens, order, favorite_mass)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_corpus_deterministic():
    a = make_synthetic_corpus(seed=4, vocab=64, n_tokens=3000)
    b = make_synthetic_corpus(seed=4, vocab=64, n_tokens=3000)
    c = make_synthetic_corpus(seed=5, vocab=64, n_tokens=3000)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_corpus_is_skewed_but_covers_vocab(corpus):
    # favorites + Zipf popularity compress the unigram distribution well
    # below uniform, which is what makes the corpus learnable
    ratio = unigram_entropy(corpus, 256) / np.log(256)
    assert ratio < 0.9
    assert len(np.unique(corpus)) > 128


def test_corpus_is_predictable_from_context(corpus):
    # conditional entropy given the previous token must sit far below the
    # unigram entropy, otherwise there is nothing for a model to learn
    uni = unigram_entropy(corpus, 256)
    pairs = np.stack([corpus[:-1], corpus[1:]])
    joint = np.zeros((256, 256))
    np.add.at(joint, (pairs[0], pairs[1]), 1.0)
    joint /= joint.sum()
    marginal = joint.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = joint * (np.log(joint) - np.log(marginal))
    conditional_entropy = -np.nansum(cond)
    assert conditional_entropy < 0.6 * uni


def test_higher_favorite_mass_means_lower_entropy():
    loose = make_synthetic_corpus(seed=2, vocab=64, n_tokens=20000, favorite_mass=0.5)
    tight = make_synthetic_corpus(seed=2, vocab=64, n_tokens=20000, favorite_mass=0.95)
    assert unigram_entropy(tight, 64) < unigram_entropy(loose, 64)


def test_order_changes_the_sequence():
    first = make_synthetic_corpus(seed=6, vocab=64, n_tokens=5000, order=1)
    second = make_synthetic_corpus(seed=6, vocab=64, n_tokens=5000, order=2)
    assert first.tobytes() != second.tobytes()


def test_corpus_argument_validation():
    with pytest.raises(ValidationError):
        make_synthetic_corpus(seed=0, vocab=1, n_tokens=100)
    with pytest.raises(ValidationError):
        make_synthetic_corpus(seed=0, vocab=64, n_tokens=0)
    with pytest.raises(ValidationError):
        make_synthetic_corpus(seed=0, vocab=64, n_tokens=100, order=0)
    with pytest.raises(ValidationError):
        make_synthetic_corpus(seed=0, vocab=64, n_tokens=100, favorite_mass=1.5)


def test_token_file_roundtrip(tmp_path, corpus):
    path = tmp_path / "tokens.u32"
    save_tokens(path, corpus[:1000])
    again = load_tokens(path)
    assert again.dtype == np.int64
    np.testing.assert_array_equal(again, corpus[:1000])
    # four bytes per token on disk, nothing else
    assert path.stat().st_size == 4 * 1000


@pytest.mark.parametrize("tokens", [[-1, 2**32 + 5, 7], [1.7, 2.2], [True, False]],
                         ids=["out-of-range", "float", "bool"])
def test_save_tokens_rejects_ids_u32_cannot_hold(tmp_path, tokens):
    path = tmp_path / "tokens.u32"
    with pytest.raises(ValidationError, match="token ids"):
        save_tokens(path, np.array(tokens))
    assert not path.exists()


def test_save_tokens_keeps_the_u32_extremes(tmp_path):
    path = tmp_path / "tokens.u32"
    save_tokens(path, np.array([0, 2**32 - 1], dtype=np.uint64))
    np.testing.assert_array_equal(load_tokens(path), [0, 2**32 - 1])


def test_load_tokens_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tokens(tmp_path / "absent.u32")


def test_load_tokens_rejects_partial_token(tmp_path):
    path = tmp_path / "tokens.u32"
    save_tokens(path, np.array([1, 2]))
    path.write_bytes(path.read_bytes()[:6])
    with pytest.raises(ValidationError, match="6 bytes"):
        load_tokens(path)


def test_unigram_entropy_bounds():
    uniform = np.arange(64, dtype=np.int64).repeat(10)
    assert unigram_entropy(uniform, 64) == pytest.approx(np.log(64), abs=1e-12)
    constant = np.zeros(100, dtype=np.int64)
    assert unigram_entropy(constant, 64) == pytest.approx(0.0, abs=1e-12)
