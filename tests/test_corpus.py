import numpy as np
import pytest

from moegrow import (
    ValidationError,
    load_tokens,
    make_synthetic_corpus,
    save_tokens,
    unigram_entropy,
)
from moegrow.corpus import zipf_distribution


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
