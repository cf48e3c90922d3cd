"""Greedy and beam-search generation.

Both decoders drive the model's incremental step API: `begin_decode` encodes
the source once and computes each decoder layer's cross-attention K/V, and
each `decode_step` feeds one new token per hypothesis, appends its
self-attention K/V to a per-layer cache and returns next-token logits. Beam
search steps all live hypotheses as one batch, takes the log-softmax and the
top-k over the [live, V] score matrix in numpy, and reorders the caches by
parent hypothesis. Models that expose only `logits_for_prefix` (hand-built
stubs) run through the same decoders, recomputing each prefix in full.

Tie-breaking is fully deterministic: token argmax ties resolve to the lowest
token id, and equal-scoring finished hypotheses resolve to the lowest
lexicographic token sequence, so independent implementations agree
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Vocabulary
from .errors import ContractError
from .model import encode_source


@dataclass
class DecodeConfig:
    beam_size: int = 5
    length_penalty: float = 1.0
    max_len: int | None = None  # None: 2 * source_len + 8


@dataclass
class BeamHypothesis:
    tokens: list[int]
    score: float  # sum of log-probabilities, non-increasing as tokens append
    finished: bool


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _normalized(hyp: BeamHypothesis, length_penalty: float) -> float:
    return hyp.score / (len(hyp.tokens) ** length_penalty)


def default_max_len(source_len: int, model=None) -> int:
    n = 2 * source_len + 8
    cap = getattr(getattr(model, "config", None), "max_seq_len", None)
    if cap is not None:
        n = min(n, cap - 1)  # prefix gains a <bos>
    return n


class _PrefixStepper:
    """The step API over a model that exposes only `logits_for_prefix`:
    every step recomputes each hypothesis's whole prefix. One stepper serves
    one sentence and is its own decode state."""

    def __init__(self, model):
        self.model = model

    def begin_decode(self, src_ids) -> _PrefixStepper:
        self.src_ids, self.rows = src_ids, [[]]
        return self

    def decode_step(self, state, tokens) -> np.ndarray:
        self.rows = [row + [int(t)] for row, t in zip(self.rows, tokens)]
        return np.stack([np.asarray(self.model.logits_for_prefix(self.src_ids, row),
                                    dtype=np.float64) for row in self.rows])

    def reorder(self, parents) -> None:
        self.rows = [self.rows[i] for i in parents]


def _stepper(model):
    return model if hasattr(model, "decode_step") else _PrefixStepper(model)


def greedy_decode_ids(model, src_ids, bos_id: int, eos_id: int, max_len: int) -> list[int]:
    """Argmax decoding over ids; returns generated tokens including <eos>
    when reached within the budget.
    """
    model = _stepper(model)
    state = model.begin_decode(src_ids)
    out: list[int] = []
    token = bos_id
    for _ in range(max_len):
        token = int(np.argmax(model.decode_step(state, [token])[0]))  # ties: lowest id
        out.append(token)
        if token == eos_id:
            break
    return out


def beam_decode_ids(model, src_ids, bos_id: int, eos_id: int, beam_size: int,
                    max_len: int, length_penalty: float = 1.0) -> list[int]:
    """Standard beam search with a retirement pool for finished hypotheses.

    Each step expands every live hypothesis over the full vocabulary and keeps
    the top `beam_size` candidates by raw score; candidates ending in <eos>
    retire. The returned hypothesis maximizes score / length**length_penalty
    over the pool (falling back to live hypotheses when nothing finished).

    The top-k is exact under the tie-break: every candidate scoring at or
    above the k-th best score is kept, only those are sorted by
    (-score, tokens), and the first k survive.
    """
    if beam_size < 1:
        raise ContractError(f"beam_size must be >= 1, got {beam_size}")
    model = _stepper(model)
    state = model.begin_decode(src_ids)
    live = [BeamHypothesis([], 0.0, False)]
    last = [bos_id]
    pool: list[BeamHypothesis] = []
    for _ in range(max_len):
        logp = _log_softmax_rows(model.decode_step(state, last))
        scores = np.array([h.score for h in live])[:, None] + logp  # [live, V]
        # candidate i extends hypothesis i // vocab by token i % vocab
        vocab, flat = logp.shape[1], scores.ravel()
        k = min(beam_size, flat.size)
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        chosen = sorted(
            (int(i) for i in np.flatnonzero(flat >= kth)),
            key=lambda i: (-flat[i], live[i // vocab].tokens + [i % vocab]),
        )[:k]
        parents, survivors = [], []
        for i in chosen:
            hyp = BeamHypothesis(live[i // vocab].tokens + [i % vocab], float(flat[i]),
                                 i % vocab == eos_id)
            if hyp.finished:
                pool.append(hyp)
            else:
                parents.append(i // vocab)
                survivors.append(hyp)
        live = survivors
        if not live:
            break
        state.reorder(parents)
        last = [h.tokens[-1] for h in live]
    ranked = pool if pool else live
    best = min(ranked, key=lambda h: (-_normalized(h, length_penalty), h.tokens))
    return list(best.tokens)


def _prepare_source(source, direction, vocab: Vocabulary):
    tokens = encode_source(direction, source, vocab)
    return vocab.encode(tokens) + [vocab.eos_id]


def greedy_decode(model, source, direction, vocab: Vocabulary,
                  max_len: int | None = None) -> list[int]:
    """Greedy translation of raw source tokens for a direction; returns token
    ids ending with <eos> unless the length budget was hit.
    """
    src_ids = _prepare_source(source, direction, vocab)
    if max_len is None:
        max_len = default_max_len(len(source), model)
    return greedy_decode_ids(model, src_ids, vocab.bos_id, vocab.eos_id, max_len)


def beam_decode(model, source, direction, vocab: Vocabulary, beam_size: int = 5,
                max_len: int | None = None, length_penalty: float = 1.0) -> list[int]:
    """Beam-search translation of raw source tokens for a direction."""
    src_ids = _prepare_source(source, direction, vocab)
    if max_len is None:
        max_len = default_max_len(len(source), model)
    return beam_decode_ids(model, src_ids, vocab.bos_id, vocab.eos_id,
                           beam_size, max_len, length_penalty)


def translate(model, source, direction, vocab: Vocabulary, cfg: DecodeConfig) -> list[int]:
    """Decode per config: greedy when beam_size == 1, beam search otherwise."""
    if cfg.beam_size == 1:
        return greedy_decode(model, source, direction, vocab, cfg.max_len)
    return beam_decode(model, source, direction, vocab, cfg.beam_size,
                       cfg.max_len, cfg.length_penalty)
