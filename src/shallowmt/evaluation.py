"""Corpus BLEU, category-bucketed report tables, and latency benchmarking.

BLEU is computed on already-tokenized sequences; applying the same tokenizer
spec to hypotheses and references upstream is what keeps scores comparable
across languages. Smoothing is add-one on the numerator and denominator of
any n-gram order whose corpus-level match count is zero.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, replace

from .data import (DirectionCorpus, LanguageResourceEntry, ResourceCategory,
                   classify_resource)
from .decoding import DecodeConfig, translate
from .errors import ContractError, DataError, MeasurementError

MAX_ORDER = 4

# Main-table column order; the remaining four cells appear behind --all-cells.
DEFAULT_CELLS = ["VL2VL", "VL2L", "VL2M", "VL2H", "L2VL", "L2L", "L2M", "L2H",
                 "M2VL", "M2L", "H2VL", "H2L"]
EXTRA_CELLS = ["M2M", "M2H", "H2M", "H2H"]


@dataclass
class BleuScore:
    score: float
    ngram_precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int
    max_len_hits: int = 0  # hypotheses that ended without <eos> (set by evaluate_model)


@dataclass
class CategoryReport:
    cells: dict[str, tuple[float, int]]  # label -> (mean score, direction count)
    overall_avg: float


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses: list, references: list) -> BleuScore:
    """Corpus-level BLEU with modified n-gram precision and brevity penalty.

    Token sequences are compared pairwise (hypothesis i against reference i);
    clipping happens within each pair.
    """
    if len(hypotheses) != len(references):
        raise ContractError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ContractError("corpus_bleu: empty hypothesis list")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        if len(ref) == 0:
            raise ContractError("corpus_bleu: zero-length reference")
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(
                min(c, ref_counts[g]) for g, c in hyp_counts.items()
            )

    precisions = []
    for m, t in zip(matches, totals):
        if m == 0:
            precisions.append((m + 1) / (t + 1))
        else:
            precisions.append(m / t)
    geo_mean = math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    if hyp_len == 0:
        bp = 0.0
    else:
        bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return BleuScore(
        score=100.0 * bp * geo_mean,
        ngram_precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


def evaluate_model(model, eval_corpora: list[DirectionCorpus], vocab,
                   decode_cfg: DecodeConfig | None = None) -> dict[tuple[str, str], BleuScore]:
    """Decode every source sentence and score per direction.

    Deterministic: decoding is pure. Each score's `max_len_hits` counts the
    hypotheses that hit the length limit without emitting <eos>.
    """
    decode_cfg = decode_cfg or DecodeConfig()
    scores: dict[tuple[str, str], BleuScore] = {}
    for corpus in eval_corpora:
        direction = tuple(corpus.direction)
        hyps, hits = [], 0
        for pair in corpus.pairs:
            ids = translate(model, list(pair.src), direction, vocab, decode_cfg)
            if ids and ids[-1] == vocab.eos_id:
                ids = ids[:-1]
            else:
                hits += 1
            hyps.append(vocab.decode(ids))
        refs = [list(p.tgt) for p in corpus.pairs]
        scores[direction] = replace(corpus_bleu(hyps, refs), max_len_hits=hits)
    return scores


def build_report(scores: dict, resources: list[LanguageResourceEntry],
                 filter_floor: float | None = None,
                 reference_scores: dict | None = None,
                 all_cells: bool = False) -> CategoryReport:
    """Bucket per-direction scores into source-category x target-category cells.

    When `reference_scores` is supplied, directions whose reference score is
    <= filter_floor are dropped from every cell and from the average. The
    overall average is direction-weighted over the reported cells.
    """
    cats = {e.language: classify_resource(e) for e in resources}
    reported = set(DEFAULT_CELLS) | (set(EXTRA_CELLS) if all_cells else set())
    buckets: dict[str, list[float]] = {}
    included: list[float] = []
    for direction, value in scores.items():
        src_lang, tgt_lang = direction
        for lang in direction:
            if lang not in cats:
                raise DataError(f"language {lang!r} missing from the resources table")
        score = value.score if isinstance(value, BleuScore) else float(value)
        if reference_scores is not None and filter_floor is not None:
            ref = reference_scores[direction]
            ref = ref.score if isinstance(ref, BleuScore) else float(ref)
            if ref <= filter_floor:
                continue
        label = f"{cats[src_lang].label}2{cats[tgt_lang].label}"
        if label not in reported:
            continue
        buckets.setdefault(label, []).append(score)
        included.append(score)
    cells = {label: (sum(vals) / len(vals), len(vals)) for label, vals in buckets.items()}
    overall = sum(included) / len(included) if included else 0.0
    return CategoryReport(cells=cells, overall_avg=overall)


def format_report_table(report: CategoryReport, all_cells: bool = False) -> str:
    """Fixed-width text table in the main-table column order plus AVG."""
    columns = DEFAULT_CELLS + (EXTRA_CELLS if all_cells else []) + ["AVG"]
    width = 7
    header = "".join(c.rjust(width) for c in columns)
    row = []
    for c in columns:
        if c == "AVG":
            row.append(f"{report.overall_avg:.1f}".rjust(width))
        elif c in report.cells:
            row.append(f"{report.cells[c][0]:.1f}".rjust(width))
        else:
            row.append("-".rjust(width))
    return header + "\n" + "".join(row)


def format_report_machine(report: CategoryReport, all_cells: bool = False) -> str:
    """One line of cell=score pairs (absent cells omitted), AVG last."""
    columns = DEFAULT_CELLS + (EXTRA_CELLS if all_cells else [])
    parts = [f"{c}={report.cells[c][0]:.6f}" for c in columns if c in report.cells]
    parts.append(f"AVG={report.overall_avg:.6f}")
    return " ".join(parts)


def speed_ratio(model_latencies: dict[str, float], reference: str) -> dict[str, float]:
    """Speed-up factors relative to a reference model's seconds/sentence."""
    if reference not in model_latencies:
        raise MeasurementError(f"reference model {reference!r} has no latency entry")
    for name, latency in model_latencies.items():
        if latency <= 0:
            raise MeasurementError(f"non-positive latency for {name!r}: {latency}")
    ref = model_latencies[reference]
    return {name: ref / latency for name, latency in model_latencies.items()}


def measure_latency(model, sentences, vocab, decode_cfg: DecodeConfig | None = None,
                    warmup: int = 1, reps: int = 3) -> float:
    """Median seconds/sentence over `reps` timed passes, batch size 1.

    `sentences` is a list of (direction, source_tokens). The first `warmup`
    passes are discarded. Must run sequentially on an otherwise idle process.
    """
    if warmup < 1:
        raise ContractError(f"warmup must be >= 1, got {warmup}")
    if reps < 3:
        raise ContractError(f"reps must be >= 3, got {reps}")
    if not sentences:
        raise ContractError("measure_latency: no sentences")
    decode_cfg = decode_cfg or DecodeConfig()
    timings = []
    for _ in range(warmup + reps):
        start = time.perf_counter()
        for direction, source in sentences:
            translate(model, source, tuple(direction), vocab, decode_cfg)
        timings.append((time.perf_counter() - start) / len(sentences))
    return statistics.median(timings[warmup:])
