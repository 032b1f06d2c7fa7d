"""Synthetic training corpora with learnable sequential structure.

Tokens come from a seeded order-k Markov chain: every k-token context has a
"favorite" next token receiving most of the probability mass, with the rest
spread over a Zipf popularity distribution. Favorites are themselves drawn
from the popularity distribution, which skews the unigram distribution well
below the uniform entropy ln(vocab) while leaving most of the compressible
structure in the transitions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import check_seed
from .errors import ValidationError

_STATE_BUCKETS = 1 << 16
_WALK_CHUNK = 1 << 16  # order-1 tokens computed at once


def zipf_distribution(vocab: int, exponent: float = 1.0) -> np.ndarray:
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    p = ranks**-exponent
    return p / p.sum()


def make_synthetic_corpus(seed: int, vocab: int, n_tokens: int, order: int = 1,
                          favorite_mass: float = 0.85) -> np.ndarray:
    """Deterministic token stream from a skewed order-k Markov chain.

    favorite_mass is the probability of emitting the context's favorite
    token; the remainder is drawn from the Zipf popularity distribution.
    Values near 1 make rows near-deterministic.
    """
    if vocab < 2:
        raise ValidationError(f"vocab must be >= 2, got {vocab}")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if n_tokens < 1:
        raise ValidationError(f"n_tokens must be >= 1, got {n_tokens}")
    if not 0.0 <= favorite_mass < 1.0:
        raise ValidationError(f"favorite_mass must be in [0, 1), got {favorite_mass}")

    rng = np.random.default_rng(check_seed(seed))
    popularity = zipf_distribution(vocab)
    # favorites keyed by a hash of the context; drawing them from the
    # popularity distribution skews the unigram distribution too
    favorites = rng.choice(vocab, size=_STATE_BUCKETS, p=popularity)
    coefs = [int(c) | 1 for c in rng.integers(1, 1 << 30, size=order)]

    emit_favorite = rng.random(n_tokens) < favorite_mass
    exploration = rng.choice(vocab, size=n_tokens, p=popularity)

    context = [int(t) for t in rng.choice(vocab, size=order, p=popularity)]
    if order == 1:
        favorite_of = favorites[(coefs[0] * np.arange(vocab)) % _STATE_BUCKETS]
        return _walk_order1(favorite_of, context[0], emit_favorite, exploration)
    out = np.empty(n_tokens, dtype=np.int64)
    for t in range(n_tokens):
        if emit_favorite[t]:
            h = 0
            for c, tok in zip(coefs, context):
                h = (h + c * tok) % _STATE_BUCKETS
            token = int(favorites[h])
        else:
            token = int(exploration[t])
        out[t] = token
        context.pop(0)
        context.append(token)
    return out


def _walk_order1(favorite_of: np.ndarray, start: int, emit_favorite: np.ndarray,
                 exploration: np.ndarray) -> np.ndarray:
    """The order-1 chain without a per-token loop.

    A favorite d steps after the last drawn token a is favorite_of^d(a). Each
    chunk finds every favorite's anchor with a running maximum, then applies
    favorite_of^d to all of them at once by binary lifting: one pass per bit
    of the longest run, squaring the map between passes. Chunks bound the
    working memory; each starts from the last token of the one before.
    """
    out = np.empty_like(exploration)
    for lo in range(0, len(out), _WALK_CHUNK):
        emit = emit_favorite[lo:lo + _WALK_CHUNK]
        pos = np.arange(len(emit))
        anchor = np.maximum.accumulate(np.where(emit, -1, pos))
        steps = pos - anchor
        tokens = out[lo:lo + len(emit)]
        # anchor -1 is the token before the chunk
        tokens[:] = np.where(anchor < 0, start, exploration[lo + anchor])
        power = favorite_of
        for bit in range(int(steps.max()).bit_length()):
            hit = np.flatnonzero(steps & (1 << bit))
            tokens[hit] = power[tokens[hit]]
            power = power[power]
        start = tokens[-1]
    return out


def unigram_entropy(tokens: np.ndarray, vocab: int) -> float:
    """Empirical entropy (nats) of the token marginal distribution."""
    counts = np.bincount(np.asarray(tokens).astype(np.int64), minlength=vocab)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def save_tokens(path: str | Path, tokens: np.ndarray) -> None:
    """Write a token stream as raw little-endian u32, no header.

    Rejects anything but integer ids in [0, 2**32), which u32 would wrap or
    truncate.
    """
    tokens = np.asarray(tokens)
    if tokens.dtype.kind not in "iu":
        raise ValidationError(f"token ids must be integers, got dtype {tokens.dtype}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= 1 << 32):
        raise ValidationError(
            f"token ids must lie in [0, 2**32), got {tokens.min()}..{tokens.max()}"
        )
    np.ascontiguousarray(tokens, dtype="<u4").tofile(str(path))


def load_tokens(path: str | Path) -> np.ndarray:
    """Read a token stream written by save_tokens."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"token file not found: {path}")
    size = path.stat().st_size
    if size % 4:
        raise ValidationError(f"token file {path} is {size} bytes, not a whole number of u32 tokens")
    return np.fromfile(str(path), dtype="<u4").astype(np.int64)
