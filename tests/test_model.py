import json

import numpy as np
import pytest

from shallowmt import autodiff as ad
from shallowmt import data
from shallowmt.data import Vocabulary
from shallowmt.errors import ConfigError, ContractError, VocabularyError
from shallowmt.model import (CHECKPOINT_MAGIC, Model, ModelConfig, encode_source,
                             forward, forward_batch, init_student_from_teacher,
                             load_model, param_count, param_shapes, save_model)

CFG = dict(encoder_layers=2, decoder_layers=2, emb_dim=16, ffn_dim=32,
           num_heads=4, vocab_size=20, max_seq_len=32)


@pytest.fixture(scope="module")
def model():
    return Model.create(ModelConfig(**CFG), seed=0)


class TestConfig:
    def test_zero_decoder_layers_forbidden(self):
        with pytest.raises(ConfigError):
            ModelConfig(**{**CFG, "decoder_layers": 0})

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(**{**CFG, "emb_dim": 18})

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(**{**CFG, "dropout": 1.0})

    def test_shallower_decoder_is_expected(self):
        cfg = ModelConfig(**{**CFG, "decoder_layers": 1})
        assert cfg.decoder_layers < cfg.encoder_layers


class TestForward:
    def test_causality_exact(self, model):
        src = [5, 6, 7, 2]
        base = forward(model, src, [1, 8, 9, 10]).data
        for j in range(3):
            prefix = [1, 8, 9, 10]
            prefix[j + 1] = 15  # perturb a strictly-later input position
            changed = forward(model, src, prefix).data
            assert np.array_equal(base[: j + 1], changed[: j + 1])
            assert not np.array_equal(base[j + 1], changed[j + 1])

    def test_eval_mode_bit_identical(self, model):
        a = forward(model, [4, 5, 2], [1, 6], train_mode=False).data
        b = forward(model, [4, 5, 2], [1, 6], train_mode=False).data
        assert np.array_equal(a, b)

    def test_length_error(self, model):
        with pytest.raises(ContractError):
            forward(model, list(range(2, 5)) * 20, [1])

    def test_unknown_token_id(self, model):
        with pytest.raises(VocabularyError):
            forward(model, [5, 99], [1])
        with pytest.raises(VocabularyError):
            forward(model, [5], [1, -2])

    def test_train_mode_needs_rng_when_dropout_on(self):
        cfg = ModelConfig(**{**CFG, "dropout": 0.2})
        m = Model.create(cfg, seed=1)
        with pytest.raises(ContractError):
            forward(m, [4, 2], [1], train_mode=True)
        out = forward(m, [4, 2], [1], train_mode=True, rng=np.random.default_rng(0))
        assert np.isfinite(out.data).all()

    def test_dropout_seed_reproducible(self):
        cfg = ModelConfig(**{**CFG, "dropout": 0.2})
        m = Model.create(cfg, seed=1)
        a = forward(m, [4, 5, 2], [1, 6], True, np.random.default_rng(5)).data
        b = forward(m, [4, 5, 2], [1, 6], True, np.random.default_rng(5)).data
        assert np.array_equal(a, b)

    def test_padded_batch_rows_match_single_runs(self, model):
        """Padding must not leak: each padded row equals its solo forward."""
        examples = [([5, 6, 2], [1, 8]), ([7, 8, 9, 10, 2], [1, 9, 11, 4])]
        smax = max(len(s) for s, _ in examples)
        tmax = max(len(t) for _, t in examples)
        src = np.zeros((2, smax), dtype=np.int64)
        src_pad = np.ones((2, smax), dtype=bool)
        tgt = np.zeros((2, tmax), dtype=np.int64)
        tgt_pad = np.ones((2, tmax), dtype=bool)
        for i, (s, t) in enumerate(examples):
            src[i, : len(s)] = s
            src_pad[i, : len(s)] = False
            tgt[i, : len(t)] = t
            tgt_pad[i, : len(t)] = False
        batched = forward_batch(model, src, tgt, src_pad, tgt_pad).data
        for i, (s, t) in enumerate(examples):
            solo = forward(model, s, t).data
            assert np.array_equal(batched[i, : len(t)], solo)

    def test_language_code_changes_logits(self, model):
        # same content, different code token at position 0
        a = forward(model, [10, 5, 6, 2], [1, 8]).data
        b = forward(model, [11, 5, 6, 2], [1, 8]).data
        assert not np.array_equal(a, b)


STEP_TOL = 1e-12  # cached steps sum in another order than the full recompute


def assert_steps_match_prefix_logits(m, src, steps=20, seed=0):
    """Step a growing batch of random hypotheses, reordering them like a
    beam, and compare every row with the full recompute of its prefix."""
    rng = np.random.default_rng(seed)
    vocab_size = m.config.vocab_size
    state = m.begin_decode(src)
    prefixes = [[1]]
    tokens = [1]
    for j in range(steps):
        got = m.decode_step(state, tokens)
        assert got.shape == (len(prefixes), vocab_size)
        for row, prefix in zip(got, prefixes):
            want = m.logits_for_prefix(src, prefix)
            assert np.max(np.abs(row - want)) <= STEP_TOL
        parents = rng.integers(0, len(prefixes), size=min(j + 2, 4))
        state.reorder(parents)
        tokens = [int(t) for t in rng.integers(3, vocab_size, size=len(parents))]
        prefixes = [prefixes[i] + [t] for i, t in zip(parents, tokens)]


class TestDecodeStep:
    def test_untrained_deep_model_matches_prefix_logits(self):
        m = Model.create(ModelConfig(**{**CFG, "encoder_layers": 4, "decoder_layers": 4,
                                        "emb_dim": 64, "ffn_dim": 128}), seed=0)
        assert_steps_match_prefix_logits(m, [5, 6, 7, 8, 9, 2])

    def test_trained_model_matches_prefix_logits(self, identity_setup):
        m, vocab = identity_setup["model"], identity_setup["vocab"]
        pair = identity_setup["test"][0].pairs[0]
        src = vocab.encode(["<lang:bb>"] + list(pair.src)) + [vocab.eos_id]
        assert_steps_match_prefix_logits(m, src, seed=1)

    def test_stepping_past_max_seq_len_raises(self):
        m = Model.create(ModelConfig(**{**CFG, "max_seq_len": 4}), seed=0)
        state = m.begin_decode([5, 6, 2])
        for token in (1, 8, 9, 10):
            m.decode_step(state, [token])
        with pytest.raises(ContractError):
            m.decode_step(state, [11])

    def test_unknown_token_id(self, model):
        state = model.begin_decode([5, 6, 2])
        with pytest.raises(VocabularyError):
            model.decode_step(state, [99])


class TestEncodeSource:
    @pytest.fixture
    def vocab(self):
        return Vocabulary(["a", "b"], ["en", "fr"])

    def test_definition(self, vocab):
        out = encode_source(("en", "fr"), ["a", "b"], vocab)
        assert out == ["<lang:fr>", "a", "b"]

    def test_same_language(self, vocab):
        assert encode_source(("en", "en"), ["a"], vocab) == ["<lang:en>", "a"]

    def test_round_trip_strip(self, vocab):
        tokens = ["b", "a", "b"]
        assert encode_source(("en", "fr"), tokens, vocab)[1:] == tokens

    def test_unregistered_language(self, vocab):
        with pytest.raises(VocabularyError):
            encode_source(("en", "de"), ["a"], vocab)

    def test_decoder_input_carries_no_language_code(self, vocab):
        # decoder input is <bos> + gold prefix by construction
        from shallowmt.training import pad_batch

        batch = pad_batch([([4, 6, 2], [7, 2])], vocab)
        assert batch.tgt_in[0, 0] == vocab.bos_id
        code_ids = {vocab.lang_code("en"), vocab.lang_code("fr")}
        assert not (set(batch.tgt_in.ravel().tolist()) & code_ids)


class TestStudentInit:
    def test_full_copy_when_configs_match(self, model):
        student = init_student_from_teacher(model, ModelConfig(**CFG), seed=99)
        assert set(student.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(student.params[name].data, model.params[name].data)

    def test_first_layers_copied(self, model):
        scfg = ModelConfig(**{**CFG, "decoder_layers": 1})
        student = init_student_from_teacher(model, scfg, seed=99)
        for name, t in student.params.items():
            assert np.array_equal(t.data, model.params[name].data), name

    def test_copied_encoder_activations_match(self, model):
        scfg = ModelConfig(**{**CFG, "decoder_layers": 1})
        student = init_student_from_teacher(model, scfg, seed=99)
        src = np.array([[5, 6, 7, 2]])
        with ad.no_grad():
            a = model.encode(src, None).data
            b = student.encode(src, None).data
        assert np.array_equal(a, b)

    def test_dimension_mismatch_names_field(self, model):
        bad = ModelConfig(**{**CFG, "emb_dim": 32, "ffn_dim": 64})
        with pytest.raises(ConfigError) as exc:
            init_student_from_teacher(model, bad)
        assert "emb_dim" in str(exc.value)

    def test_deeper_student_rejected(self, model):
        bad = ModelConfig(**{**CFG, "decoder_layers": 3})
        with pytest.raises(ConfigError):
            init_student_from_teacher(model, bad)

    def test_non_copied_tensors_differ_between_seeds(self, model):
        # wider teacher so the student has fresh (non-copied) encoder layers
        deep = Model.create(ModelConfig(**{**CFG, "encoder_layers": 3}), seed=0)
        scfg = ModelConfig(**{**CFG, "encoder_layers": 2})
        s1 = init_student_from_teacher(deep, scfg, seed=1)
        s2 = init_student_from_teacher(deep, scfg, seed=1)
        for name in s1.params:
            assert np.array_equal(s1.params[name].data, s2.params[name].data)


class TestParamCount:
    def test_matches_shape_sum_oracle(self, model):
        want = sum(int(np.prod(shape)) for _, shape in param_shapes(model.config))
        assert param_count(model) == want

    def test_shared_embedding_counted_once(self):
        shared = ModelConfig(**CFG)
        split = ModelConfig(**{**CFG, "share_embeddings": False})
        n_shared = param_count(Model.create(shared, 0))
        n_split = param_count(Model.create(split, 0))
        v, d = CFG["vocab_size"], CFG["emb_dim"]
        # separate tables add a second embedding plus an output projection
        assert n_split - n_shared == v * d + (d * v + v)

    def test_pure_function_of_config(self):
        a = param_count(Model.create(ModelConfig(**CFG), seed=0))
        b = param_count(Model.create(ModelConfig(**CFG), seed=123))
        assert a == b


class TestCheckpoint:
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name].data, model.params[name].data)

    def test_byte_identical_rewrites(self, model, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_documented_layout(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        assert raw[:8] == CHECKPOINT_MAGIC
        n = int.from_bytes(raw[8:12], "little")
        manifest = json.loads(raw[12 : 12 + n])
        assert manifest["config"]["emb_dim"] == CFG["emb_dim"]
        data_section = raw[12 + n :]
        entry = manifest["tensors"][0]
        count = int(np.prod(entry["shape"]))
        arr = np.frombuffer(data_section, dtype="<f8", count=count, offset=entry["offset"])
        assert np.array_equal(arr.reshape(entry["shape"]), model.params[entry["name"]].data)
        total = sum(int(np.prod(e["shape"])) for e in manifest["tensors"])
        assert len(data_section) == total * 8

    @pytest.mark.parametrize("keep", [0.5, 10])
    def test_truncated_file_rejected(self, model, tmp_path, keep):
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * keep) if keep < 1 else keep])
        with pytest.raises(ContractError, match="truncated"):
            load_model(path)

    def test_corrupt_manifest_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[12] = ord("]")  # the manifest's opening brace
        path.write_bytes(bytes(raw))
        with pytest.raises(ContractError, match="manifest"):
            load_model(path)

    def test_tensor_outside_data_section_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        n = int.from_bytes(raw[8:12], "little")
        manifest = json.loads(raw[12 : 12 + n])
        manifest["tensors"][0]["offset"] = -8
        body = json.dumps(manifest).encode()
        path.write_bytes(raw[:8] + len(body).to_bytes(4, "little") + body + raw[12 + n :])
        with pytest.raises(ContractError, match="outside"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 16)
        with pytest.raises(ContractError):
            load_model(path)
