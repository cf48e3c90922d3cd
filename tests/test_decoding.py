import itertools
import math

import numpy as np
import pytest

from shallowmt import decoding
from shallowmt.decoding import (BeamHypothesis, beam_decode, beam_decode_ids,
                                greedy_decode, greedy_decode_ids)
from shallowmt.errors import ContractError
from shallowmt.model import Model, ModelConfig

BOS, EOS = 1, 2


class StubModel:
    """Position-wise fixed logits; step j uses row min(j, last)."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def logits_for_prefix(self, src_ids, prefix_ids):
        j = min(len(prefix_ids) - 1, len(self.rows) - 1)
        return self.rows[j]


def _log_softmax(row):
    z = row - row.max()
    return z - np.log(np.exp(z).sum())


def exhaustive_best(rows, max_len, length_penalty):
    """Enumerate every token sequence (stopping at EOS), pick the best
    normalized finished path with the same tie-break as the decoder."""
    vocab = rows.shape[1]
    finished, live = [], []
    for length in range(1, max_len + 1):
        for tokens in itertools.product(range(vocab), repeat=length):
            # valid paths contain EOS only as the final token
            if any(t == EOS for t in tokens[:-1]):
                continue
            score = 0.0
            for j, t in enumerate(tokens):
                score += float(_log_softmax(rows[min(j, len(rows) - 1)])[t])
            entry = (score / (length ** length_penalty), list(tokens))
            if tokens[-1] == EOS:
                finished.append(entry)
            elif length == max_len:
                live.append(entry)
    pool = finished if finished else live
    return min(pool, key=lambda e: (-e[0], e[1]))[1]


class TestGreedy:
    def test_immediate_eos(self):
        rows = np.zeros((1, 5))
        rows[0, EOS] = 10.0
        out = greedy_decode_ids(StubModel(rows), [4, EOS], BOS, EOS, max_len=8)
        assert out == [EOS]

    def test_max_len_budget(self):
        rows = np.zeros((1, 5))
        rows[0, 3] = 10.0  # never EOS
        out = greedy_decode_ids(StubModel(rows), [4, EOS], BOS, EOS, max_len=1)
        assert out == [3]

    def test_tie_breaks_to_lowest_id(self):
        rows = np.zeros((1, 5))  # all logits equal
        out = greedy_decode_ids(StubModel(rows), [4, EOS], BOS, EOS, max_len=1)
        assert out == [0]

    def test_trained_identity_model_echoes(self, identity_setup):
        model, vocab = identity_setup["model"], identity_setup["vocab"]
        hits = 0
        pairs = identity_setup["test"][0].pairs[:30]
        for pair in pairs:
            out = greedy_decode(model, list(pair.src), ("aa", "bb"), vocab)
            got = vocab.decode(out[:-1] if out and out[-1] == vocab.eos_id else out)
            hits += got == list(pair.tgt)
        assert hits >= 0.9 * len(pairs)


class TestBeam:
    def test_invalid_beam_size(self):
        with pytest.raises(ContractError):
            beam_decode_ids(StubModel(np.zeros((1, 4))), [3], BOS, EOS, 0, 4)

    def test_beam_one_equals_greedy_on_stubs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rows = rng.normal(size=(rng.integers(1, 4), 6))
            stub = StubModel(rows)
            g = greedy_decode_ids(stub, [3, EOS], BOS, EOS, max_len=6)
            b = beam_decode_ids(stub, [3, EOS], BOS, EOS, 1, max_len=6)
            assert g == b

    def test_beam_one_equals_greedy_on_trained_model(self, identity_setup):
        model, vocab = identity_setup["model"], identity_setup["vocab"]
        for pair in identity_setup["test"][0].pairs[:25]:
            g = greedy_decode(model, list(pair.src), ("aa", "bb"), vocab)
            b = beam_decode(model, list(pair.src), ("aa", "bb"), vocab, beam_size=1)
            assert g == b

    def test_matches_exhaustive_enumeration(self):
        # 3-token vocabulary {0, 1, EOS}, 2 decision steps, beam >= 3^2
        rng = np.random.default_rng(42)
        for trial in range(25):
            rows = rng.normal(size=(2, 3)) * 2
            stub = StubModel(rows)
            want = exhaustive_best(rows, max_len=2, length_penalty=1.0)
            got = beam_decode_ids(stub, [0, EOS], BOS, EOS, beam_size=9,
                                  max_len=2, length_penalty=1.0)
            assert got == want, f"trial {trial}: {got} != {want}"

    def test_exhaustive_with_varied_length_penalties(self):
        rng = np.random.default_rng(7)
        for lp in (0.0, 0.5, 1.0, 2.0):
            rows = rng.normal(size=(3, 3)) * 1.5
            stub = StubModel(rows)
            want = exhaustive_best(rows, max_len=3, length_penalty=lp)
            got = beam_decode_ids(stub, [0, EOS], BOS, EOS, beam_size=27,
                                  max_len=3, length_penalty=lp)
            assert got == want

    def test_length_penalty_zero_selects_raw_score(self):
        # short finished path vs longer higher-total path
        rows = np.array([
            [0.0, 3.0, 2.9],   # token 1 slightly beats EOS
            [0.0, -5.0, 8.0],  # then EOS is nearly certain
        ])
        stub = StubModel(rows)
        raw = beam_decode_ids(stub, [0, EOS], BOS, EOS, 4, 2, length_penalty=0.0)
        want = exhaustive_best(rows, max_len=2, length_penalty=0.0)
        assert raw == want

    def test_normalized_score_at_least_greedy(self, identity_setup):
        model, vocab = identity_setup["model"], identity_setup["vocab"]

        def norm_score(tokens, src):
            prefix, total = [vocab.bos_id], 0.0
            for t in tokens:
                total += float(_log_softmax(model.logits_for_prefix(src, prefix))[t])
                prefix.append(t)
            return total / len(tokens)

        for pair in identity_setup["test"][0].pairs[:10]:
            src_ids = vocab.encode(
                ["<lang:bb>"] + list(pair.src)) + [vocab.eos_id]
            g = greedy_decode_ids(model, src_ids, vocab.bos_id, vocab.eos_id, 30)
            b = beam_decode_ids(model, src_ids, vocab.bos_id, vocab.eos_id, 4, 30)
            assert norm_score(b, src_ids) >= norm_score(g, src_ids) - 1e-12

    def test_beam_growth_never_hurts_on_trained_model(self, identity_setup):
        model, vocab = identity_setup["model"], identity_setup["vocab"]

        def norm_score(tokens, src):
            prefix, total = [vocab.bos_id], 0.0
            for t in tokens:
                total += float(_log_softmax(model.logits_for_prefix(src, prefix))[t])
                prefix.append(t)
            return total / len(tokens)

        for pair in identity_setup["test"][0].pairs[:6]:
            src_ids = vocab.encode(["<lang:bb>"] + list(pair.src)) + [vocab.eos_id]
            scores = []
            for size in (1, 2, 4, 8):
                out = beam_decode_ids(model, src_ids, vocab.bos_id, vocab.eos_id, size, 30)
                scores.append(norm_score(out, src_ids))
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_outputs_valid_and_terminated(self, identity_setup):
        model, vocab = identity_setup["model"], identity_setup["vocab"]
        for pair in identity_setup["test"][0].pairs[:15]:
            out = beam_decode(model, list(pair.src), ("aa", "bb"), vocab, beam_size=3)
            assert all(0 <= t < len(vocab) for t in out)
            max_len = decoding.default_max_len(len(pair.src), model)
            assert out[-1] == vocab.eos_id or len(out) == max_len


def reference_decode(model, src_ids, bos, eos, beam_size, max_len):
    """Greedy (beam_size 1) or beam search by full recompute of every prefix,
    expanding each hypothesis into a list of all |V| candidates sorted by
    (-score, tokens); the answer maximises score / length."""
    if beam_size == 1:
        out = []
        while len(out) < max_len and (not out or out[-1] != eos):
            out.append(int(np.argmax(model.logits_for_prefix(src_ids, [bos] + out))))
        return out
    live, pool = [((), 0.0)], []
    for _ in range(max_len):
        candidates = []
        for tokens, score in live:
            lp = _log_softmax(model.logits_for_prefix(src_ids, [bos, *tokens]))
            candidates += [(tokens + (z,), score + float(lp[z])) for z in range(lp.shape[0])]
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for tokens, score in candidates[:beam_size]:
            (pool if tokens[-1] == eos else live).append((tokens, score))
        if not live:
            break
    return list(min(pool or live, key=lambda h: (-h[1] / len(h[0]), h[0]))[0])


class TestCachedDecodeMatchesReference:
    """The cached, batched step decodes exactly the tokens of a full
    recompute, on a trained model and on an untrained one (whose flat
    distributions make close beam scores common)."""

    def _cases(self, identity_setup, trained):
        if trained:
            vocab = identity_setup["vocab"]
            pairs = identity_setup["test"][0].pairs[:20]
            sources = [vocab.encode(["<lang:bb>"] + list(p.src)) + [vocab.eos_id] for p in pairs]
            return identity_setup["model"], vocab.bos_id, vocab.eos_id, sources, 30
        m = Model.create(ModelConfig(encoder_layers=4, decoder_layers=4, emb_dim=16,
                                     ffn_dim=32, num_heads=4, vocab_size=12), seed=0)
        rng = np.random.default_rng(9)
        sources = [list(rng.integers(3, 12, size=rng.integers(2, 8))) + [EOS]
                   for _ in range(20)]
        return m, BOS, EOS, sources, 8

    @pytest.mark.parametrize("trained", [True, False])
    @pytest.mark.parametrize("beam_size", [1, 5])
    def test_tokens_equal(self, identity_setup, trained, beam_size):
        m, bos, eos, sources, max_len = self._cases(identity_setup, trained)
        for src in sources:
            want = reference_decode(m, src, bos, eos, beam_size, max_len)
            if beam_size == 1:
                got = greedy_decode_ids(m, src, bos, eos, max_len)
            else:
                got = beam_decode_ids(m, src, bos, eos, beam_size, max_len)
            assert got == want


def test_hypothesis_score_non_increasing():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(4, 5))
    stub = StubModel(rows)
    # scores are sums of log-probabilities, so any extension lowers the score
    hyp = BeamHypothesis([], 0.0, False)
    score = hyp.score
    prefix = [BOS]
    for j in range(4):
        lp = _log_softmax(stub.logits_for_prefix([0], prefix))
        t = int(np.argmax(lp))
        new_score = score + float(lp[t])
        assert new_score <= score
        score = new_score
        prefix.append(t)


def test_default_max_len():
    assert decoding.default_max_len(5) == 18
