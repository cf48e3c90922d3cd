import math

import numpy as np
import pytest

from shallowmt import evaluation
from shallowmt.data import (DirectionCorpus, LanguageResourceEntry, TranslationPair,
                            Vocabulary)
from shallowmt.decoding import DecodeConfig
from shallowmt.errors import ContractError, DataError, MeasurementError
from shallowmt.evaluation import (BleuScore, build_report, corpus_bleu,
                                  evaluate_model, format_report_machine,
                                  format_report_table, measure_latency, speed_ratio)

RNG = np.random.default_rng(5150)


class TestCorpusBleu:
    def test_identical_corpora_score_100(self):
        hyps = [["a", "b", "c"], ["d"], ["e", "f", "g", "h", "i"]]
        out = corpus_bleu(hyps, [list(h) for h in hyps])
        assert out.score == 100.0
        assert out.brevity_penalty == 1.0
        assert out.ngram_precisions == (1.0, 1.0, 1.0, 1.0)

    def test_hand_counted_four_vs_five(self):
        # precisions 4/4, 3/3, 2/2, 1/1; BP = exp(1 - 5/4)
        out = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert out.score == pytest.approx(77.88007830714049, abs=1e-9)
        assert out.ngram_precisions == (1.0, 1.0, 1.0, 1.0)
        assert out.brevity_penalty == pytest.approx(math.exp(-0.25), abs=1e-15)
        assert (out.hyp_len, out.ref_len) == (4, 5)

    def test_disjoint_vocabulary_smoothing_formula(self):
        hyps = [list("qrstuvwx") for _ in range(5)]
        refs = [list("abcdefgh") for _ in range(5)]
        out = corpus_bleu([list(h) for h in hyps], refs)
        # independent evaluation of the add-one smoothing formula
        totals = [5 * (8 - n + 1) for n in range(1, 5)]
        want = 100.0 * math.exp(sum(math.log(1.0 / (t + 1)) for t in totals) / 4)
        assert out.score == pytest.approx(want, abs=1e-9)
        assert out.score < 5.0

    def test_score_invariant_definition(self):
        hyps = [list("abcd"), list("cdef")]
        refs = [list("abcf"), list("cdgf")]
        out = corpus_bleu(hyps, refs)
        gm = math.exp(sum(math.log(p) for p in out.ngram_precisions) / 4)
        assert out.score == pytest.approx(100.0 * out.brevity_penalty * gm, abs=1e-9)

    def test_permutation_invariance(self):
        pairs = [
            (list(RNG.choice(list("abcdef"), size=RNG.integers(1, 9))),
             list(RNG.choice(list("abcdef"), size=RNG.integers(1, 9))))
            for _ in range(20)
        ]
        base = corpus_bleu([h for h, _ in pairs], [r for _, r in pairs]).score
        rng = np.random.default_rng(0)
        for _ in range(50):
            perm = rng.permutation(len(pairs))
            shuffled = [pairs[i] for i in perm]
            score = corpus_bleu([h for h, _ in shuffled], [r for _, r in shuffled]).score
            assert score == base

    def test_bounds_and_imperfect_inputs(self):
        for _ in range(100):
            hyps = [list(RNG.choice(list("abc"), size=RNG.integers(1, 7))) for _ in range(4)]
            refs = [list(RNG.choice(list("abc"), size=RNG.integers(1, 7))) for _ in range(4)]
            s = corpus_bleu(hyps, refs).score
            assert 0.0 <= s <= 100.0

    def test_only_equality_scores_100(self):
        refs = [list("abcde"), list("fabcd")]
        exact = corpus_bleu([list(r) for r in refs], refs).score
        assert exact == 100.0
        dented = [list("abcde"), list("fabcc")]  # one token changed
        assert corpus_bleu(dented, refs).score < 100.0
        shorter = [list("abcd"), list("fabcd")]
        assert corpus_bleu(shorter, refs).score < 100.0

    def test_empty_hypothesis_list_rejected(self):
        with pytest.raises(ContractError):
            corpus_bleu([], [])

    def test_zero_length_reference_rejected(self):
        with pytest.raises(ContractError):
            corpus_bleu([["a"]], [[]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ContractError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_empty_hypothesis_scores_zero(self):
        out = corpus_bleu([[]], [["a", "b"]])
        assert out.score == 0.0


class EchoStub:
    """Copies the source tokens (positions 1..n of the encoded input), then EOS."""

    def __init__(self, vocab):
        self.vocab = vocab

    def logits_for_prefix(self, src_ids, prefix_ids):
        row = np.zeros(len(self.vocab))
        j = len(prefix_ids)  # next output position, 1-based over src_ids
        target = src_ids[j] if j < len(src_ids) else self.vocab.eos_id
        row[target] = 10.0
        return row


class TestEvaluateModel:
    @pytest.fixture
    def setup(self):
        vocab = Vocabulary(list("abcdef"), ["aa", "bb", "cc"])
        pairs1 = [TranslationPair("aa", "bb", tuple(RNG.choice(list("abc"), size=4)),
                                  None) for _ in range(6)]
        pairs1 = [TranslationPair(p.src_lang, p.tgt_lang, p.src, p.src) for p in pairs1]
        pairs2 = [TranslationPair("aa", "cc", ("d", "e"), ("d", "e")) for _ in range(3)]
        corpora = [DirectionCorpus(("aa", "bb"), pairs1), DirectionCorpus(("aa", "cc"), pairs2)]
        return EchoStub(vocab), vocab, corpora

    def test_echo_model_scores_100(self, setup):
        model, vocab, corpora = setup
        scores = evaluate_model(model, corpora, vocab, DecodeConfig(beam_size=1))
        assert set(scores) == {("aa", "bb"), ("aa", "cc")}
        assert all(s.score == 100.0 for s in scores.values())

    def test_deterministic(self, setup):
        model, vocab, corpora = setup
        a = evaluate_model(model, corpora, vocab, DecodeConfig(beam_size=1))
        b = evaluate_model(model, corpora, vocab, DecodeConfig(beam_size=1))
        assert {d: s.score for d, s in a.items()} == {d: s.score for d, s in b.items()}

    def test_counts_max_len_hits(self, setup):
        model, vocab, corpora = setup
        full = evaluate_model(model, corpora, vocab, DecodeConfig(beam_size=1))
        assert all(s.max_len_hits == 0 for s in full.values())
        # 4-token echoes need 5 steps to emit <eos>, 2-token ones need 3
        for beam_size in (1, 3):
            cut = evaluate_model(model, corpora, vocab,
                                 DecodeConfig(beam_size=beam_size, max_len=4))
            assert cut[("aa", "bb")].max_len_hits == 6
            assert cut[("aa", "cc")].max_len_hits == 0

    def test_compositional_oracle(self, identity_setup):
        model, vocab = identity_setup["model"], identity_setup["vocab"]
        corpora = identity_setup["test"]
        from shallowmt.decoding import translate

        cfg = DecodeConfig(beam_size=1)
        scores = evaluate_model(model, corpora, vocab, cfg)
        hyps, refs = [], []
        for pair in corpora[0].pairs:
            ids = translate(model, list(pair.src), ("aa", "bb"), vocab, cfg)
            if ids and ids[-1] == vocab.eos_id:
                ids = ids[:-1]
            hyps.append(vocab.decode(ids))
            refs.append(list(pair.tgt))
        manual = corpus_bleu(hyps, refs)
        assert scores[("aa", "bb")].score == manual.score


RESOURCES = [
    LanguageResourceEntry("vl1", 50_000),
    LanguageResourceEntry("vl2", 100_000),
    LanguageResourceEntry("lo1", 500_000),
    LanguageResourceEntry("me1", 50_000_000),
    LanguageResourceEntry("hi1", 200_000_000),
]


class TestBuildReport:
    def test_single_direction_fixture(self):
        report = build_report({("vl1", "vl2"): 8.7}, RESOURCES)
        assert report.cells == {"VL2VL": (8.7, 1)}
        assert report.overall_avg == pytest.approx(8.7, abs=1e-12)

    def test_cell_mean(self):
        scores = {("vl1", "lo1"): 4.0, ("vl2", "lo1"): 6.0}
        report = build_report(scores, RESOURCES)
        assert report.cells["VL2L"] == (pytest.approx(5.0, abs=1e-12), 2)

    def test_filter_floor_excludes_weak_reference(self):
        scores = {("vl1", "vl2"): 8.0, ("vl1", "lo1"): 9.0}
        reference = {("vl1", "vl2"): 2.9, ("vl1", "lo1"): 3.1}
        report = build_report(scores, RESOURCES, filter_floor=3.0,
                              reference_scores=reference)
        assert "VL2VL" not in report.cells
        assert report.cells["VL2L"] == (9.0, 1)
        assert report.overall_avg == pytest.approx(9.0)

    def test_counts_sum_to_unfiltered_directions(self):
        scores = {
            ("vl1", "vl2"): 1.0, ("vl1", "lo1"): 2.0, ("lo1", "me1"): 3.0,
            ("me1", "vl1"): 4.0, ("hi1", "lo1"): 5.0,
        }
        report = build_report(scores, RESOURCES)
        assert sum(count for _, count in report.cells.values()) == len(scores)

    def test_default_layout_hides_high_cells(self):
        scores = {("me1", "me1"): 30.0, ("vl1", "vl2"): 5.0}
        report = build_report(scores, RESOURCES)
        assert "M2M" not in report.cells
        assert report.overall_avg == pytest.approx(5.0)  # M2M direction not mentioned
        full = build_report(scores, RESOURCES, all_cells=True)
        assert full.cells["M2M"] == (30.0, 1)
        assert full.overall_avg == pytest.approx(17.5)

    def test_direction_weighted_average(self):
        scores = {("vl1", "vl2"): 2.0, ("vl2", "vl1"): 4.0, ("vl1", "lo1"): 9.0}
        report = build_report(scores, RESOURCES)
        # mean over 3 directions, not mean of the 2 cell means
        assert report.overall_avg == pytest.approx(5.0, abs=1e-12)

    def test_missing_language_rejected(self):
        with pytest.raises(DataError):
            build_report({("vl1", "nope"): 1.0}, RESOURCES)

    def test_accepts_bleu_score_values(self):
        score = BleuScore(42.0, (1, 1, 1, 1), 1.0, 3, 3)
        report = build_report({("vl1", "vl2"): score}, RESOURCES)
        assert report.cells["VL2VL"][0] == 42.0

    def test_table_formatting(self):
        report = build_report({("vl1", "vl2"): 8.7, ("vl1", "lo1"): 4.25}, RESOURCES)
        table = format_report_table(report)
        header, row = table.splitlines()
        assert header.split() == evaluation.DEFAULT_CELLS + ["AVG"]
        cells = row.split()
        assert cells[0] == "8.7" and cells[1] == "4.2"  # VL2VL, VL2L columns
        assert cells[2] == "-"
        machine = format_report_machine(report)
        assert machine.startswith("VL2VL=8.700000 VL2L=4.250000")
        assert machine.endswith(f"AVG={report.overall_avg:.6f}")


class TestSpeed:
    def test_reference_ratio_is_one(self):
        assert speed_ratio({"big": 2.0}, "big") == {"big": 1.0}

    def test_reporting_convention(self):
        ratios = speed_ratio({"teacher": 7.8, "student": 1.0}, "teacher")
        assert ratios["student"] == pytest.approx(7.8)
        assert ratios["teacher"] == 1.0

    def test_ordering_preserved(self):
        lat = {"a": 3.0, "b": 2.0, "c": 1.0}
        ratios = speed_ratio(lat, "a")
        assert ratios["c"] > ratios["b"] > ratios["a"]

    def test_invalid_inputs(self):
        with pytest.raises(MeasurementError):
            speed_ratio({"a": 1.0}, "missing")
        with pytest.raises(MeasurementError):
            speed_ratio({"a": 0.0}, "a")


class FastStub:
    def logits_for_prefix(self, src_ids, prefix_ids):
        row = np.zeros(8)
        row[2] = 5.0  # always EOS
        return row


class TestMeasureLatency:
    @pytest.fixture
    def vocab(self):
        return Vocabulary(list("ab"), ["aa", "bb"])

    def test_contract_checks(self, vocab):
        stub = FastStub()
        sentences = [(("aa", "bb"), ["a"])]
        with pytest.raises(ContractError):
            measure_latency(stub, sentences, vocab, warmup=0, reps=3)
        with pytest.raises(ContractError):
            measure_latency(stub, sentences, vocab, warmup=1, reps=2)
        with pytest.raises(ContractError):
            measure_latency(stub, [], vocab)

    def test_returns_positive_seconds(self, vocab):
        stub = FastStub()
        sentences = [(("aa", "bb"), ["a", "b"]), (("aa", "bb"), ["b"])]
        sec = measure_latency(stub, sentences, vocab, DecodeConfig(beam_size=1),
                              warmup=1, reps=3)
        assert sec > 0.0

    def test_median_absorbs_outlier_rep(self, vocab, monkeypatch):
        stub = FastStub()
        sentences = [(("aa", "bb"), ["a"])]
        # scripted clock: warmup rep d, then reps [d, d, 10d, d, d]
        durations = [1.0, 1.0, 1.0, 10.0, 1.0, 1.0]
        ticks = []
        now = 0.0
        for d in durations:
            ticks += [now, now + d]
            now += d
        it = iter(ticks)
        monkeypatch.setattr(evaluation.time, "perf_counter", lambda: next(it))
        sec = measure_latency(stub, sentences, vocab, DecodeConfig(beam_size=1),
                              warmup=1, reps=5)
        assert sec == pytest.approx(1.0, rel=0.05)

    def test_decoding_identical_across_reps(self, identity_setup):
        model, vocab = identity_setup["model"], identity_setup["vocab"]
        from shallowmt.decoding import translate

        pair = identity_setup["test"][0].pairs[0]
        cfg = DecodeConfig(beam_size=1)
        outs = {tuple(translate(model, list(pair.src), ("aa", "bb"), vocab, cfg))
                for _ in range(5)}
        assert len(outs) == 1
