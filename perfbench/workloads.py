"""The benchmark's workloads: set-up, timed closed loops, output checks, metrics.

Every workload is one client in a closed loop: the next operation (one
optimizer step, one batch-1 sentence or one corpus pass) starts when the
previous one has ended. The package is driven through its public functions
only. Tracing is attached from outside by `tracer.Patches` and, in a traced
run, switched on for every other operation, so the same run also gives the
untraced times that the tracing overhead is measured against.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shallowmt import autodiff, data, decoding, evaluation, model, training
from shallowmt.decoding import DecodeConfig
from shallowmt.losses import DistillConfig

from tracer import Patches, Tracer

ALPHABET = "abcdefghijklmnopqrst"
TRANSFORMS = (("rev", "reverse"), ("cae", "caesar1"), ("dup", "duplicate"))
SPLIT = (0.8, 0.0, 0.2)
BEAM_SIZE = 5
# Model weights come from a fixed seed, not the workload seed: untrained
# models differ in how often they emit <eos>, which would change the work a
# decode does from one workload seed to the next.
MODEL_SEED = 0
CACHE_TOL = 1e-9  # cached teacher rows vs a fresh teacher forward
# Every timed operation runs this many times, in rounds that each cover the
# whole workload, and its fastest round counts. Other jobs on a shared
# machine slow the CPU by up to 30% for stretches from a fraction of a second
# to many seconds; rounds several seconds apart rarely all fall in one.
REPEATS = 3
# Memoising results across calls would make the later rounds nearly free; a
# kind whose first round has a median this many times that of its later
# untraced rounds fails a check.
ROUND_RATIO_MAX = 2.0
OP_KINDS = ("teacher", "student")  # steps on `train`, sentences on `greedy`/`beam`


@dataclass(frozen=True)
class Size:
    per_direction: int  # synthesized pairs per direction, before the split
    quota: int  # balanced training pairs per direction
    setup_reps: int  # set-ups before each round; setup_s is the median of all
    teacher_epochs_per_s: float  # teacher CE epochs per requested second, at least one
    pairs_per_s: dict  # teacher+student sentence pairs per requested second, by workload
    eval_sentences: dict  # corpus-pass sentences per direction, by workload
    check_sentences: int  # sentences per model checked against the reference decode
    check_batches: int  # batches checked against a fresh teacher forward


FULL = Size(per_direction=2800, quota=1000, setup_reps=5, teacher_epochs_per_s=1 / 15,
            pairs_per_s={"greedy": 20.0, "beam": 4.0},
            eval_sentences={"greedy": 60, "beam": 20},
            check_sentences=6, check_batches=4)
TINY = Size(per_direction=60, quota=40, setup_reps=1, teacher_epochs_per_s=10.0,
            pairs_per_s={"greedy": 2.0, "beam": 2.0},
            eval_sentences={"greedy": 2, "beam": 1},
            check_sentences=1, check_batches=1)


# ---------------------------------------------------------------------------
# tracing


def instrument(tracer: Tracer) -> Patches:
    """Spans at every layer boundary the workloads cross, each patched in the
    module or class where the caller looks the name up."""
    patches = Patches()
    plain = [
        (data, "synthesize_toy_corpus", "data.synth"),
        (data, "split_corpus", "data.split_balance"),
        (data, "balance", "data.split_balance"),
        (data.Vocabulary, "from_corpora", "data.encode"),
        (training, "encode_examples", "data.encode"),
        (model, "load_model", "model.load"),
        (training, "make_epoch_batches", "data.batch"),
        (training, "pad_batch", "data.batch"),
        (model.Model, "encode", "model.encode"),
        (autodiff.Tensor, "backward", "autodiff.backward"),
        (training, "batch_ce_loss", "losses.ce"),
        (training, "batch_kd_loss", "losses.kd"),
        (training, "adam_step", "training.adam"),
        (training, "run_train_step", "training.step"),
        (decoding, "translate", "decoding.translate"),
        (evaluation, "translate", "decoding.translate"),
        (evaluation, "evaluate_model", "evaluation.eval"),
        (evaluation, "corpus_bleu", "evaluation.bleu"),
    ]
    for owner, attr, name in plain:
        patches.add(owner, attr, functools.partial(tracer.wrap, name=name))

    def decode(fn):
        @functools.wraps(fn)
        def traced(self, enc_out, tgt_ids, *args, **kwargs):
            with tracer.span("model.decode") as sp:
                sp.size = np.shape(tgt_ids)[-1]
                tracer.count("model.decode_positions", np.size(tgt_ids))
                return fn(self, enc_out, tgt_ids, *args, **kwargs)

        return traced

    def tape(cls):
        class CountingTape(cls):
            def __init__(self, root):
                super().__init__(root)
                tracer.count("autodiff.tape_nodes", len(self.nodes))

        return CountingTape

    def batch_probs(fn):
        @functools.wraps(fn)
        def traced(self, batch):
            first = len(tracer.spans)
            with tracer.span("training.teacher"):
                probs = fn(self, batch)
            # a miss runs the teacher, which shows as an encoder span inside
            miss = any(s.name == "model.encode" for s in tracer.spans[first:])
            tracer.count("training.cache_lookups")
            tracer.count("training.cache_hits", 0 if miss else 1)
            return probs

        return traced

    patches.add(model.Model, "decode", decode)
    patches.add(autodiff, "Tape", tape)
    patches.add(training.TeacherProbCache, "batch_probs", batch_probs)
    return patches


@dataclass
class Op:
    kind: str
    seconds: float
    tokens: int  # source + target tokens of a step, output tokens of a sentence
    sentences: int
    traced: bool
    key: int  # operations of one kind with equal keys repeat the same work


class Run:
    """One benchmark run: its timed operations, check results and tracer."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.tracer = Tracer()
        self.patches = instrument(self.tracer) if trace else None
        self.ops: list[Op] = []
        self.failed_ops = 0
        self.checks = 0
        self.failed_checks = 0
        self.notes: list[str] = []
        self.layer_extra: dict[str, float] = {}
        self.between_rounds = lambda: None  # set by run_workload: the next set-ups

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed_ops + self.checks

    @property
    def failed(self) -> int:
        return self.failed_ops + self.failed_checks

    def pass_share(self) -> float:
        """Passed operations times passed checks, each as a share: one check
        among thousands of operations weighs as much as its share of checks."""
        ops = len(self.ops) + self.failed_ops
        return ((1.0 - self.failed_ops / max(1, ops))
                * (1.0 - self.failed_checks / max(1, self.checks)))

    def rounds(self):
        """Round numbers 0..REPEATS-1, with the next set-ups between rounds."""
        for r in range(REPEATS):
            if r:
                self.between_rounds()
            yield r

    @contextmanager
    def request(self, kind: str):
        """Trace everything inside as one request of `kind`."""
        self.tracer.begin(kind)
        try:
            with self.patches.active():
                yield
        finally:
            self.tracer.end()

    def op(self, kind: str, traced: bool, key: int, fn):
        """Time `fn() -> (result, tokens, sentences)` as one operation; None
        if it raised."""
        traced = traced and self.trace
        start = time.perf_counter()
        try:
            with self.request(kind) if traced else nullcontext():
                result, tokens, sentences = fn()
        except Exception:  # a failed operation counts against pass_share; the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed_ops += 1
            return None
        self.ops.append(Op(kind, time.perf_counter() - start, tokens, sentences, traced, key))
        return result

    def check(self, what: str, ok: bool, detail: str = ""):
        self.checks += 1
        self.failed_checks += 0 if ok else 1
        self.notes.append(f"check {'ok  ' if ok else 'FAIL'} {what}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    vocab: data.Vocabulary
    examples: list  # encoded training pairs
    test: list  # held-out DirectionCorpus per direction
    teacher: model.Model  # 4 encoder / 4 decoder layers, seeded, untrained
    student: model.Model  # 4 / 1, initialised from the teacher


def set_up(seed: int, size: Size, workdir: Path) -> Setup:
    """The acceptance-style corpus and seeded models, written to checkpoints
    in the new directory `workdir` and read back."""
    spec = [(("src", tgt), name, size.per_direction) for tgt, name in TRANSFORMS]
    corpora = data.synthesize_toy_corpus(spec, seed=seed, alphabet=ALPHABET)
    train, test = [], []
    for corpus in corpora:
        splits = data.split_corpus(corpus, SPLIT)
        train.append(data.balance(splits["train"], size.quota, seed=seed))
        test.append(splits["test"])
    vocab = data.Vocabulary.from_corpora(train)
    examples = training.encode_examples(train, vocab)
    teacher = model.Model.create(training.toy_model_config(len(vocab)), MODEL_SEED)
    student = model.init_student_from_teacher(
        teacher, training.toy_model_config(len(vocab), decoder_layers=1), MODEL_SEED)
    workdir.mkdir()
    loaded = []
    for name, m in (("teacher", teacher), ("student", student)):
        path = workdir / f"{name}.ckpt"
        model.save_model(m, path)
        loaded.append(model.load_model(path))
    return Setup(vocab, examples, test, *loaded)


# ---------------------------------------------------------------------------
# workloads


def _train_segment(run: Run, kind: str, state, setup: Setup, cfg, steps: int, traced: bool,
                   teacher=None, cache=None) -> list:
    """`steps` optimizer steps on one-micro-batch batches; returns each
    step's loss bundle with its CE per target token."""
    vocab, examples = setup.vocab, setup.examples
    dcfg = DistillConfig(alpha_mode="fixed", alpha_init=1.0)

    def stream():
        for epoch in itertools.count():
            rng = np.random.default_rng([cfg.seed, 2, epoch])
            yield from training.make_epoch_batches(examples, cfg.batch_tokens, rng)

    batches = stream()

    def step():
        ids = next(batches)
        batch = training.pad_batch([examples[i] for i in ids], vocab, example_ids=list(ids))
        bundle = training.run_train_step(state, [batch], cfg, dcfg, teacher, cache)
        return (bundle, batch), batch.n_tokens, batch.n_sentences

    losses = []
    for i in range(steps):
        done = run.op(kind, traced, i, step)
        if done is not None:
            bundle, batch = done
            # CE per target token: the bundle's per-sentence mean depends on
            # how long the batch's sentences are
            losses.append((bundle, bundle.ce * batch.n_sentences / batch.tgt_mask.sum()))
    return losses


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _held_mb(obj) -> float:
    """Megabytes of the numpy buffers behind arrays in `obj`'s dict and list
    attributes; views of one buffer count it once."""
    buffers = {}
    for value in vars(obj).values():
        items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
        for a in items:
            if isinstance(a, np.ndarray):
                base = a.base if isinstance(a.base, np.ndarray) else a
                buffers[id(base)] = base.nbytes
    return sum(buffers.values()) / 2**20


def run_train(run: Run, setup: Setup, seed: int, seconds: float, size: Size):
    """Whole epochs of CE steps on the 4/4 teacher, then a distill phase-2
    segment on the 4/1 student with the teacher cache: one epoch of misses,
    then two of hits. Both run REPEATS times from the same start, each time
    with a new cache, so every repeat does the same work."""
    cfg = training.toy_train_config(seed=seed, log_every=0)
    epoch = len(training.make_epoch_batches(setup.examples, cfg.batch_tokens,
                                            np.random.default_rng([cfg.seed, 2, 0])))
    epochs = max(1, round(size.teacher_epochs_per_s * seconds))
    teacher_runs, distill_runs = [], []
    for r in run.rounds():  # a round runs both segments, so a segment's rounds are far apart
        teacher_state = training.TrainState.fresh(setup.teacher.clone(), seed)
        teacher_runs.append(_train_segment(run, "teacher", teacher_state, setup, cfg,
                                           epochs * epoch, r == 1))
        teacher = teacher_state.model
        student = model.init_student_from_teacher(teacher, setup.student.config, MODEL_SEED)
        student_state = training.TrainState.fresh(student, seed)
        cache = training.TeacherProbCache(teacher)
        distill_runs.append(_train_segment(run, "student", student_state, setup, cfg, 3 * epoch,
                                           r == 1, teacher, cache))
    teacher_losses, distill_losses = teacher_runs[-1], distill_runs[-1]
    run.layer_extra["training.cache_mb"] = _held_mb(cache)
    run.layer_extra["training.final_ce"] = statistics.fmean(ce for _, ce in distill_losses[-10:])

    losses = teacher_losses + distill_losses
    run.check("every loss is finite",
              all(math.isfinite(v) for b, _ in losses for v in (b.ce, b.kd, b.total)),
              f"{len(losses)} steps")
    for name, runs in (("teacher", teacher_runs), ("distill", distill_runs)):
        totals = [[b.total for b, _ in losses] for losses in runs]
        run.check(f"the {len(runs)} repeats of the {name} segment give identical losses",
                  all(t == totals[0] for t in totals), f"{len(totals[0])} steps")
    k = max(1, len(teacher_losses) // 10)
    first = statistics.fmean(ce for _, ce in teacher_losses[:k])
    last = statistics.fmean(ce for _, ce in teacher_losses[-k:])
    run.check("teacher CE per token falls over its segment", last < first,
              f"first {k} steps {first:.4f}, last {k} steps {last:.4f}")
    _check_cache(run, cache, teacher, setup, seed, size.check_batches)


def _check_cache(run: Run, cache, teacher, setup: Setup, seed: int, n_batches: int):
    """Cached teacher rows, read back in new batch compositions, against a
    fresh teacher forward of the same batch."""
    rng = np.random.default_rng([seed, 7])
    for b in range(n_batches):
        ids = [int(i) for i in rng.choice(len(setup.examples), size=min(16, len(setup.examples)),
                                          replace=False)]
        batch = training.pad_batch([setup.examples[i] for i in ids], setup.vocab, example_ids=ids)
        cached = cache.batch_probs(batch)
        with autodiff.no_grad():
            logits = model.forward_batch(teacher, batch.src, batch.tgt_in, batch.src_pad,
                                         ~batch.tgt_mask.astype(bool))
        live = batch.tgt_mask.astype(bool)
        worst = float(np.abs(cached[live] - _softmax(logits.data)[live]).max())
        run.check(f"cached teacher rows match a fresh forward (batch {b})", worst <= CACHE_TOL,
                  f"max |diff| {worst:.3g}")


def _by_length(setup: Setup, seed: int) -> list[list]:
    """Held-out pairs as strata of one direction and one source length, each
    in seeded order. Decode cost depends on the direction and the length, so
    drawing a fixed pattern of strata keeps the work per run the same across
    seeds while the seed picks the sentences."""
    rng = np.random.default_rng([seed, 5])
    strata = []
    for corpus in setup.test:
        groups: dict[int, list] = {}
        for pair in corpus.pairs:
            groups.setdefault(len(pair.src), []).append(pair)
        for length in sorted(groups):
            pairs = groups[length]
            strata.append([pairs[i] for i in rng.permutation(len(pairs))])
    return strata


def _round_robin(strata: list[list]):
    """One pair from each stratum in turn, cycling through each stratum."""
    for i in itertools.count():
        for pairs in strata:
            yield pairs[i % len(pairs)]


def _eval_corpus(setup: Setup, seed: int, per_direction: int) -> list:
    """`per_direction` held-out pairs per direction, spread over the lengths."""
    strata = _by_length(setup, seed)
    out = []
    for corpus in setup.test:
        mine = [g for g in strata if (g[0].src_lang, g[0].tgt_lang) == tuple(corpus.direction)]
        pairs = list(itertools.islice(_round_robin(mine), per_direction))
        out.append(data.DirectionCorpus(corpus.direction, pairs))
    return out


def _evaluate(student, corpus, vocab, cfg: DecodeConfig):
    """One `evaluate_model` pass as an operation."""
    n = sum(len(c.pairs) for c in corpus)
    return lambda: (evaluation.evaluate_model(student, corpus, vocab, cfg), 0, n)


def _check_bleu(run: Run, student, corpus, vocab, cfg: DecodeConfig, results: list):
    """Each pass's BLEU against corpus_bleu over the benchmark's own translations."""
    own = {}
    for c in corpus:
        direction = tuple(c.direction)
        hyps = []
        for pair in c.pairs:
            ids = decoding.translate(student, list(pair.src), direction, vocab, cfg)
            if ids and ids[-1] == vocab.eos_id:
                ids = ids[:-1]
            hyps.append(vocab.decode(ids))
        own[direction] = evaluation.corpus_bleu(hyps, [list(p.tgt) for p in c.pairs]).score
    for i, scores in enumerate(results):
        got = None if scores is None else {d: s.score for d, s in scores.items()}
        run.check(f"corpus pass {i}: evaluate_model BLEU equals corpus_bleu over translate",
                  got == own, "" if got == own else f"{got} vs {own}")


def reference_decode(m, src_ids, bos: int, eos: int, beam_size: int, max_len: int) -> list:
    """Greedy (beam_size 1) or beam search by full recompute through
    `forward_batch`, with the documented tie-breaks: the lowest token id wins
    an argmax tie, and equal-scoring hypotheses resolve to the lowest token
    sequence. Beam candidates are ranked by raw score; the answer maximises
    score / length."""

    def log_probs(tokens):
        with autodiff.no_grad():
            logits = model.forward_batch(m, np.array([src_ids]), np.array([[bos, *tokens]]))
        z = logits.data[0, -1] - logits.data[0, -1].max()
        return z - np.log(np.exp(z).sum())

    if beam_size == 1:
        out: list[int] = []
        while len(out) < max_len and (not out or out[-1] != eos):
            out.append(int(np.argmax(log_probs(out))))
        return out
    live: list[tuple[tuple, float]] = [((), 0.0)]
    pool: list[tuple[tuple, float]] = []
    for _ in range(max_len):
        candidates = []
        for tokens, score in live:
            lp = log_probs(list(tokens))
            candidates += [(tokens + (z,), score + float(lp[z])) for z in range(lp.shape[0])]
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for tokens, score in candidates[:beam_size]:
            (pool if tokens[-1] == eos else live).append((tokens, score))
        if not live:
            break
    best = min(pool or live, key=lambda h: (-h[1] / len(h[0]), h[0]))
    return list(best[0])


def run_decode(run: Run, setup: Setup, seed: int, seconds: float, size: Size, workload: str):
    """Batch-1 translation of held-out sentences, teacher then student per
    sentence, each to its reference length + 1, then one corpus pass of the
    student at the default length limit; REPEATS rounds of both."""
    beam_size = BEAM_SIZE if workload == "beam" else 1
    vocab = setup.vocab
    strata = _by_length(setup, seed)
    # a fixed interleaving of the strata, so any prefix of the sentences
    # covers every direction and length about equally
    strata = [strata[i] for i in np.random.default_rng(MODEL_SEED).permutation(len(strata))]
    n_pairs = max(2, round(size.pairs_per_s[workload] * seconds))
    sentences = [((p.src_lang, p.tgt_lang), list(p.src), len(p.tgt))
                 for p in itertools.islice(_round_robin(strata), n_pairs)]
    models = (("teacher", setup.teacher), ("student", setup.student))
    for _, m in models:  # first calls pay one-time costs
        decoding.translate(m, sentences[0][1], sentences[0][0], vocab,
                           DecodeConfig(beam_size=beam_size, max_len=2))
    corpus = _eval_corpus(setup, seed, size.eval_sentences[workload])
    pass_cfg = DecodeConfig(beam_size=beam_size)
    evaluate = _evaluate(setup.student, corpus, vocab, pass_cfg)

    def translate(m, src, direction, cfg):
        out = decoding.translate(m, src, direction, vocab, cfg)
        return out, len(out), 1

    outputs = {}
    scores = []
    differ = 0
    for r in run.rounds():
        for j, (direction, src, ref_len) in enumerate(sentences):
            cfg = DecodeConfig(beam_size=beam_size, max_len=ref_len + 1)
            for kind, m in models:
                out = run.op(kind, r == 1, j, functools.partial(translate, m, src, direction, cfg))
                if r == 0:
                    outputs[kind, j] = out
                differ += out != outputs[kind, j]
        scores.append(run.op("pass", r == 1, 0, evaluate))
    run.check(f"the {REPEATS} repeats of each sentence give the same output", differ == 0,
              f"{differ} differ")
    done = [out for out in outputs.values() if out is not None]
    run.layer_extra["decoding.max_len_share"] = (
        sum(1 for out in done if not out or out[-1] != vocab.eos_id) / max(1, len(done)))

    match = total = 0
    for j, (direction, src, ref_len) in enumerate(sentences[:size.check_sentences]):
        src_ids = vocab.encode(model.encode_source(direction, src, vocab)) + [vocab.eos_id]
        for kind, m in models:
            ref = reference_decode(m, src_ids, vocab.bos_id, vocab.eos_id, beam_size, ref_len + 1)
            got = outputs[kind, j] or []
            match += sum(a == b for a, b in zip(got, ref))
            total += max(len(got), len(ref))
            run.check(f"{kind} sentence {j} equals the reference decode", got == ref)
    run.notes.append(f"token-match rate vs reference decode: {match}/{total} = {match / max(1, total):.4f}")
    _check_bleu(run, setup.student, corpus, vocab, pass_cfg, scores)


# ---------------------------------------------------------------------------
# metrics


def _ms(ops, kind):
    return [o.seconds * 1e3 for o in ops if o.kind == kind]


def check_rounds(run: Run):
    """Each kind's first round against its later untraced rounds."""
    seen: dict = {}
    first: dict = {}
    later: dict = {}
    for o in run.ops:
        r = seen[o.kind, o.key] = seen.get((o.kind, o.key), -1) + 1
        if r == 0:
            first.setdefault(o.kind, []).append(o.seconds)
        elif not o.traced:
            later.setdefault(o.kind, []).append(o.seconds)
    for kind in sorted(first.keys() & later.keys()):
        ratio = statistics.median(first[kind]) / statistics.median(later[kind])
        run.check(f"{kind}: first round's median at most {ROUND_RATIO_MAX}x the later rounds'",
                  ratio <= ROUND_RATIO_MAX, f"median ratio {ratio:.3f}")


def fastest(ops: list) -> list:
    """The fastest of each set of operations that repeat the same work."""
    best: dict = {}
    for o in ops:
        if (o.kind, o.key) not in best or o.seconds < best[o.kind, o.key].seconds:
            best[o.kind, o.key] = o
    return list(best.values())


def e2e_metrics(run: Run, setup_times: list) -> dict:
    """End-to-end metrics over the fastest untraced repeat of each operation:
    value, unit and sample count."""
    ops = fastest([o for o in run.ops if not o.traced])
    out = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "pass_share": (run.pass_share(), "share", run.attempted),
    }
    for kind in OP_KINDS:
        ms = _ms(ops, kind)
        for q in (50, 90):
            out[f"{kind}_ms_p{q}"] = (float(np.percentile(ms, q)) if ms else math.nan, "ms", len(ms))
    timed = [o for o in ops if o.kind in OP_KINDS]
    busy = max(1e-12, sum(o.seconds for o in timed))
    out["tokens_per_s"] = (sum(o.tokens for o in timed) / busy, "1/s", len(timed))
    # corpus sentences per second: the evaluation pass where a workload has
    # one, else the training steps
    passes = [o.sentences / o.seconds for o in ops if o.kind == "pass"]
    out["corpus_sent_per_s"] = ((passes[0], "1/s", sum(1 for o in run.ops if o.kind == "pass"))
                                if passes else (sum(o.sentences for o in timed) / busy, "1/s", len(timed)))
    return out


def _translate_steps(tracer: Tracer, rids: set) -> list[int]:
    """Decoder steps of each translate span: its longest decoded prefix."""
    steps = {i: 0 for i, s in enumerate(tracer.spans)
             if s.name == "decoding.translate" and s.request in rids}
    for s in tracer.spans:
        if s.name == "model.decode" and s.parent in steps:
            steps[s.parent] = max(steps[s.parent], s.size)
    return list(steps.values())


def layer_metrics(run: Run, workload: str) -> dict:
    """Per-layer metrics of a traced run: value and unit.

    Set-up layers are per set-up; hot-path layers are per timed step or
    sentence; evaluation layers are per corpus pass.
    """
    tr = run.tracer
    n_setup = max(1, len(tr.requests({"setup"})))
    op_rids = tr.requests(set(OP_KINDS))
    n_ops = max(1, len(op_rids))
    n_sent = 0 if workload == "train" else n_ops
    n_pass = max(1, len(tr.requests({"pass"})))
    s_self, _, _, _ = tr.totals({"setup"})
    o_self, o_calls, o_incl, o_counts = tr.totals(set(OP_KINDS))
    p_self, _, _, _ = tr.totals({"pass"})
    teacher_inclusive = o_incl.get("training.teacher", 0.0)
    lookups = o_counts.get("training.cache_lookups", 0.0)
    steps = _translate_steps(tr, op_rids)
    traced = [o for o in run.ops if o.traced]
    untraced = [o for o in run.ops if not o.traced]
    overheads = [np.percentile(_ms(traced, k), 50) / np.percentile(_ms(untraced, k), 50) - 1.0
                 for k in OP_KINDS if _ms(traced, k) and _ms(untraced, k)]

    def per(total_s, n):
        return 1e3 * total_s / n if n else 0.0

    return {
        "data.synth_ms": (per(s_self.get("data.synth", 0.0), n_setup), "ms"),
        "data.split_balance_ms": (per(s_self.get("data.split_balance", 0.0), n_setup), "ms"),
        "data.encode_ms": (per(s_self.get("data.encode", 0.0), n_setup), "ms"),
        "model.load_ms": (per(s_self.get("model.load", 0.0), n_setup), "ms"),
        "data.batch_ms": (per(o_self.get("data.batch", 0.0), n_ops), "ms"),
        "model.encode_ms": (per(o_self.get("model.encode", 0.0), n_ops), "ms"),
        "model.encode_calls": (o_calls.get("model.encode", 0) / n_ops, "count"),
        "model.decode_ms": (per(o_self.get("model.decode", 0.0), n_ops), "ms"),
        "model.decode_calls": (o_calls.get("model.decode", 0) / n_ops, "count"),
        "model.decode_positions": (o_counts.get("model.decode_positions", 0.0) / n_ops, "count"),
        "autodiff.backward_ms": (per(o_self.get("autodiff.backward", 0.0), n_ops), "ms"),
        "autodiff.tape_nodes": (o_counts.get("autodiff.tape_nodes", 0.0) / n_ops, "count"),
        "losses.ce_ms": (per(o_self.get("losses.ce", 0.0), n_ops), "ms"),
        "losses.kd_ms": (per(o_self.get("losses.kd", 0.0), n_ops), "ms"),
        "training.adam_ms": (per(o_self.get("training.adam", 0.0), n_ops), "ms"),
        "training.step_self_ms": (per(o_self.get("training.step", 0.0), n_ops), "ms"),
        "training.teacher_ms": (per(teacher_inclusive, n_ops), "ms"),
        "training.cache_hit_ratio": (
            o_counts.get("training.cache_hits", 0.0) / lookups if lookups else 0.0, "share"),
        "training.cache_lookups": (lookups, "count"),
        "training.cache_mb": (run.layer_extra.get("training.cache_mb", 0.0), "MB"),
        "training.final_ce": (run.layer_extra.get("training.final_ce", 0.0), "nats/token"),
        "decoding.self_ms": (per(o_self.get("decoding.translate", 0.0), n_sent), "ms"),
        "decoding.steps_per_sent": (statistics.fmean(steps) if steps else 0.0, "count"),
        "decoding.max_len_share": (run.layer_extra.get("decoding.max_len_share", 0.0), "share"),
        "evaluation.eval_ms": (per(p_self.get("evaluation.eval", 0.0), n_pass), "ms"),
        "evaluation.bleu_ms": (per(p_self.get("evaluation.bleu", 0.0), n_pass), "ms"),
        "trace.overhead_pct": (100.0 * statistics.fmean(overheads) if overheads else 0.0, "%"),
        "trace.spans_per_op": (
            sum(1 for s in tr.spans if s.request in op_rids) / n_ops, "count"),
    }


# ---------------------------------------------------------------------------
# one run


@dataclass
class Result:
    run: Run
    e2e: dict  # untraced operations
    layers: dict | None  # traced runs only


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> Result:
    run = Run(trace)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=Path.cwd()))
    setup_times = []

    def timed_set_up() -> Setup:
        gc.collect()  # frees the previous set-up's cycles at a fixed point
        start = time.perf_counter()
        with run.request("setup") if trace else nullcontext():
            setup = set_up(seed, size, workdir / str(len(setup_times)))
        setup_times.append(time.perf_counter() - start)
        return setup

    def set_ups(n: int):
        for _ in range(n):  # each result is dropped before the next is built
            timed_set_up()

    try:
        # set-ups run before every round, so a burst of load on the machine
        # slows only some of them
        setup = timed_set_up()
        set_ups(size.setup_reps - 1)
        run.between_rounds = functools.partial(set_ups, size.setup_reps)
        if workload == "train":
            run_train(run, setup, seed, seconds, size)
        else:
            run_decode(run, setup, seed, seconds, size, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_rounds(run)
    return Result(run, e2e_metrics(run, setup_times),
                  layer_metrics(run, workload) if trace else None)
