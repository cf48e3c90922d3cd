import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shallowmt import data
from shallowmt.data import (DirectionCorpus, LanguageResourceEntry, ResourceCategory,
                            TokenizerSpec, TranslationPair, Vocabulary, balance,
                            classify_resource, pair_category, split_corpus,
                            synthesize_toy_corpus, tokenize, detokenize)
from shallowmt.errors import ConfigError, ContractError, DataError, VocabularyError


def _corpus(n, direction=("aa", "bb")):
    pairs = [
        TranslationPair(direction[0], direction[1], (f"s{i}",), (f"t{i}",))
        for i in range(n)
    ]
    return DirectionCorpus(direction, pairs)


class TestBalance:
    @pytest.mark.parametrize("size", [1, 99, 100, 101, 1000])
    def test_exact_quota(self, size):
        out = balance(_corpus(size), 100, seed=0)
        assert len(out.pairs) == 100

    def test_equal_size_is_identity_multiset(self):
        corpus = _corpus(100)
        out = balance(corpus, 100, seed=1)
        assert sorted(p.src for p in out.pairs) == sorted(p.src for p in corpus.pairs)

    def test_repetition_counts(self):
        out = balance(_corpus(40), 100, seed=2)
        counts = {}
        for p in out.pairs:
            counts[p.src] = counts.get(p.src, 0) + 1
        assert len(out.pairs) == 100
        assert set(counts.values()) <= {2, 3}  # floor(100/40)=2, remainder gets 3

    def test_subsample_distinct_subset(self):
        corpus = _corpus(250)
        out = balance(corpus, 100, seed=3)
        srcs = [p.src for p in out.pairs]
        assert len(srcs) == 100 and len(set(srcs)) == 100
        assert set(srcs) <= {p.src for p in corpus.pairs}

    def test_seed_determinism_and_variation(self):
        corpus = _corpus(40)
        a = [p.src for p in balance(corpus, 100, seed=7).pairs]
        b = [p.src for p in balance(corpus, 100, seed=7).pairs]
        assert a == b
        diffs = 0
        for s in range(20):
            x = [p.src for p in balance(corpus, 100, seed=s).pairs]
            y = [p.src for p in balance(corpus, 100, seed=s + 1000).pairs]
            diffs += x != y
        assert diffs >= 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            balance(DirectionCorpus(("aa", "bb"), []), 10, seed=0)

    def test_bad_quota_rejected(self):
        with pytest.raises(ContractError):
            balance(_corpus(5), 0, seed=0)

    @given(st.integers(1, 400), st.integers(1, 120), st.integers(0, 2**30))
    def test_quota_and_multiplicity_properties(self, size, quota, seed):
        out = balance(_corpus(size), quota, seed=seed)
        assert len(out.pairs) == quota
        counts = {}
        for p in out.pairs:
            counts[p.src] = counts.get(p.src, 0) + 1
        if size < quota:
            assert set(counts.values()) <= {quota // size, quota // size + 1}
        else:
            assert set(counts.values()) == {1}


class TestSynthesis:
    def test_identity_transformation(self):
        (corpus,) = synthesize_toy_corpus([(("aa", "bb"), "identity", 20)], seed=1)
        assert all(p.tgt == p.src for p in corpus.pairs)

    def test_reverse_definition(self):
        fn = data.make_transformation("reverse", "abcdef")
        assert fn(["a", "b", "c"]) == ["c", "b", "a"]

    def test_caesar_wraparound(self):
        fn = data.make_transformation("caesar1", "abcdef")
        assert fn(["f"]) == ["a"]
        assert fn(["a", "e"]) == ["b", "f"]
        assert data.make_transformation("caesar-1", "abcdef")(["f"]) == ["a"]

    def test_duplicate(self):
        fn = data.make_transformation("duplicate", "abcdef")
        assert fn(["a", "b"]) == ["a", "a", "b", "b"]

    def test_vowel_swap(self):
        fn = data.make_transformation("vowel_swap", "abcdef")
        assert fn(["a", "b", "e"]) == ["e", "b", "i"]

    def test_composition(self):
        fn = data.make_transformation("reverse+caesar1", "abcdef")
        assert fn(["a", "b"]) == ["c", "b"]

    def test_unknown_transformation(self):
        with pytest.raises(ConfigError):
            data.make_transformation("rot13", "abcdef")

    def test_seed_determinism(self):
        spec = [(("aa", "bb"), "reverse", 30), (("aa", "cc"), "caesar2", 30)]
        one = synthesize_toy_corpus(spec, seed=9)
        two = synthesize_toy_corpus(spec, seed=9)
        other = synthesize_toy_corpus(spec, seed=10)
        assert [c.pairs for c in one] == [c.pairs for c in two]
        assert [c.pairs for c in one] != [c.pairs for c in other]

    def test_lengths_and_alphabet(self):
        (corpus,) = synthesize_toy_corpus([(("aa", "bb"), "identity", 200)], seed=4)
        lengths = {len(p.src) for p in corpus.pairs}
        assert lengths <= set(range(3, 13))
        assert {3, 12} <= lengths  # both ends reached over 200 draws
        tokens = {t for p in corpus.pairs for t in p.src}
        assert tokens <= set("abcdef")


class TestTokenize:
    def test_whitespace(self):
        assert tokenize("a b", TokenizerSpec("whitespace")) == ["a", "b"]

    def test_char(self):
        assert tokenize("ab", TokenizerSpec("char")) == ["a", "b"]

    def test_unknown_spec(self):
        with pytest.raises(VocabularyError):
            tokenize("a", TokenizerSpec("bpe"))

    @given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4), min_size=1, max_size=6))
    def test_whitespace_round_trip(self, words):
        text = " ".join(words)  # no leading/trailing/double spaces by construction
        spec = TokenizerSpec("whitespace")
        assert detokenize(tokenize(text, spec), spec) == text

    @given(st.text(alphabet="abc xyz", max_size=20))
    def test_char_round_trip(self, text):
        spec = TokenizerSpec("char")
        assert detokenize(tokenize(text, spec), spec) == text


class TestVocabulary:
    def test_dense_ids_and_specials(self):
        v = Vocabulary(["x", "y"], ["en", "fr"])
        assert v.encode(["x", "y"]) == [6, 7]
        assert v.decode([0, 1, 2, 3]) == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert sorted(v.encode(["x"]) + [v.pad_id, v.bos_id, v.eos_id, v.unk_id,
                                         v.lang_code("en"), v.lang_code("fr")]) == list(range(7))

    def test_unknown_token_maps_to_unk(self):
        v = Vocabulary(["x"], ["en"])
        assert v.encode(["zzz"]) == [v.unk_id]

    def test_unregistered_language(self):
        v = Vocabulary(["x"], ["en"])
        with pytest.raises(VocabularyError):
            v.lang_code("fr")

    def test_collision_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["<pad>"], ["en"])
        with pytest.raises(VocabularyError):
            Vocabulary(["x", "x"], ["en"])

    def test_from_corpora_deterministic(self):
        corpora = synthesize_toy_corpus([(("aa", "bb"), "identity", 10)], seed=0)
        assert Vocabulary.from_corpora(corpora).tokens == Vocabulary.from_corpora(corpora).tokens


class TestCategories:
    @pytest.mark.parametrize(
        "size,want",
        [
            (0, ResourceCategory.VERY_LOW),
            (100_000, ResourceCategory.VERY_LOW),
            (100_001, ResourceCategory.LOW),
            (1_000_000, ResourceCategory.LOW),
            (1_000_001, ResourceCategory.MEDIUM),
            (5_000_000, ResourceCategory.MEDIUM),
            (100_000_000, ResourceCategory.MEDIUM),
            (100_000_001, ResourceCategory.HIGH),
            (200_000_000, ResourceCategory.HIGH),
        ],
    )
    def test_boundaries(self, size, want):
        assert classify_resource(LanguageResourceEntry("xx", size)) is want

    @given(st.integers(0, 10**10), st.integers(0, 10**10))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert classify_resource(LanguageResourceEntry("x", lo)) <= classify_resource(
            LanguageResourceEntry("x", hi)
        )

    def test_pair_category_is_minimum(self):
        cats = list(ResourceCategory)
        for a in cats:
            for b in cats:
                assert pair_category(a, b) == min(a, b)
        assert pair_category(ResourceCategory.LOW, ResourceCategory.HIGH) is ResourceCategory.LOW
        assert pair_category(ResourceCategory.HIGH, ResourceCategory.HIGH) is ResourceCategory.HIGH
        assert pair_category(ResourceCategory.VERY_LOW, ResourceCategory.MEDIUM) is ResourceCategory.VERY_LOW


class TestSplits:
    def test_partition_is_disjoint_and_complete(self):
        (corpus,) = synthesize_toy_corpus([(("aa", "bb"), "identity", 500)], seed=2)
        splits = split_corpus(corpus)
        total = sum(len(s.pairs) for s in splits.values())
        assert total == 500
        seen = {}
        for name, part in splits.items():
            for p in part.pairs:
                key = (p.src_lang, p.tgt_lang, p.src)
                assert seen.setdefault(key, name) == name
        # roughly 90/5/5
        assert len(splits["train"].pairs) > 400

    def test_deterministic(self):
        (corpus,) = synthesize_toy_corpus([(("aa", "bb"), "identity", 100)], seed=2)
        a = split_corpus(corpus)
        b = split_corpus(corpus)
        assert all(a[k].pairs == b[k].pairs for k in a)

    def test_bad_ratios(self):
        (corpus,) = synthesize_toy_corpus([(("aa", "bb"), "identity", 10)], seed=2)
        with pytest.raises(ContractError):
            split_corpus(corpus, (0.5, 0.1, 0.1))


class TestIO:
    def test_tsv_round_trip(self, tmp_path):
        spec = [(("aa", "bb"), "reverse", 25), (("cc", "dd"), "caesar1", 25)]
        corpora = synthesize_toy_corpus(spec, seed=3)
        path = tmp_path / "corpus.tsv"
        data.save_corpus_tsv(corpora, path)
        loaded = data.load_corpus_tsv(path)
        assert [c.direction for c in loaded] == [c.direction for c in corpora]
        assert [c.pairs for c in loaded] == [c.pairs for c in corpora]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only\ttwo\n")
        with pytest.raises(DataError):
            data.load_corpus_tsv(path)

    @pytest.mark.parametrize("line, side", [("aa\tbb\t\tx y\n", "source"),
                                            ("aa\tbb\tx y\t\n", "target")])
    def test_empty_field(self, tmp_path, line, side):
        path = tmp_path / "empty.tsv"
        path.write_text("aa\tbb\ta b\tb a\n" + line)
        with pytest.raises(DataError, match=f"empty.tsv:2: empty {side} field"):
            data.load_corpus_tsv(path)

    def test_resources_tsv(self, tmp_path):
        path = tmp_path / "res.tsv"
        path.write_text("# comment\nen\t2000000000\nxx\t5\n")
        entries = data.load_resources_tsv(path)
        assert entries == [
            LanguageResourceEntry("en", 2_000_000_000),
            LanguageResourceEntry("xx", 5),
        ]


def test_direction_mismatch_rejected():
    with pytest.raises(DataError):
        DirectionCorpus(("aa", "bb"), [TranslationPair("aa", "cc", ("x",), ("y",))])


def test_encode_pair_appends_eos():
    v = Vocabulary(["x", "y"], ["aa", "bb"])
    pair = TranslationPair("aa", "bb", ("x",), ("y",))
    src, tgt = data.encode_pair(pair, v)
    assert src[-1] == v.eos_id and tgt[-1] == v.eos_id
    assert len(src) == 2 and len(tgt) == 2
    with pytest.raises(DataError):
        data.encode_pair(TranslationPair("aa", "bb", (), ("y",)), v)


def test_balanced_total_scales_with_directions():
    spec = [(("aa", "bb"), "identity", 37), (("aa", "cc"), "reverse", 310)]
    corpora = synthesize_toy_corpus(spec, seed=6)
    balanced = [balance(c, 100, seed=1) for c in corpora]
    assert sum(len(c.pairs) for c in balanced) == len(spec) * 100
