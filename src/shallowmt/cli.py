"""Command-line entry point.

Subcommands: synth, train-teacher, distill, train-baseline, finetune,
evaluate, report, bench. Every command writes a JSON run manifest next to its
artifacts; re-running a command with --manifest reproduces the artifact
byte-for-byte. Exit codes: 0 success, 2 usage/config error, 3 runtime failure.

Config files are flat `key = value` lines ('#' starts a comment); keys mirror
the TrainConfig / DistillConfig / ModelConfig fields plus student_encoder_layers
and student_decoder_layers. Flags override config-file values, which override
the selected profile.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as _dt
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, data, evaluation, training
from .data import DirectionCorpus, Vocabulary
from .decoding import DecodeConfig
from .errors import (ConfigError, ContractError, DataError, DistributionError,
                     ShallowMTError, TrainingError, VocabularyError)
from .losses import DistillConfig
from .model import ModelConfig, load_model, save_model
from .training import TrainConfig

EXIT_OK, EXIT_USAGE, EXIT_RUNTIME = 0, 2, 3

_TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)
_DISTILL_KEYS = {"alpha_mode", "alpha_init"}
_MODEL_KEYS = set(ModelConfig.__dataclass_fields__) - {"vocab_size"}
_STUDENT_KEYS = {"student_encoder_layers", "student_decoder_layers"}
_KNOWN_KEYS = _TRAIN_KEYS | _DISTILL_KEYS | _MODEL_KEYS | _STUDENT_KEYS


def parse_kv_config(path) -> dict:
    """Flat key = value config file; values are parsed as int, float, bool,
    or left as strings."""
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = _parse_value(value)
    return cfg


def _parse_value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def resolve_configs(profile: str, file_cfg: dict, overrides: dict, vocab_size: int):
    """Profile < config file < flag overrides; returns train/distill/model
    configs plus the student's layer counts."""
    if profile == "toy":
        train_base = asdict(training.toy_train_config())
        model_base = asdict(training.toy_model_config(vocab_size))
    elif profile == "paper":
        train_base = asdict(training.paper_train_config())
        model_base = asdict(training.paper_model_config(vocab_size))
    else:
        raise ConfigError(f"unknown profile {profile!r} (expected 'toy' or 'paper')")
    distill_base = {"alpha_mode": "fixed", "alpha_init": 1.0,
                    "label_smoothing": train_base["label_smoothing"]}
    student = {"student_encoder_layers": model_base["encoder_layers"],
               "student_decoder_layers": 1 if profile == "toy" else 3}

    merged = dict(file_cfg)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in merged.items():
        if key in _TRAIN_KEYS:
            train_base[key] = value
        if key in _DISTILL_KEYS or key == "label_smoothing":
            distill_base[key] = value
        if key in _MODEL_KEYS:
            model_base[key] = value
        if key in _STUDENT_KEYS:
            student[key] = value
    model_base["vocab_size"] = vocab_size
    return (TrainConfig(**train_base), DistillConfig(**distill_base),
            ModelConfig(**model_base), student)


# ---------------------------------------------------------------------------
# manifests and atomic output


def _atomic_write_text(path: Path, text: str):
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


class RunManifest:
    """Resolved inputs of one command, written next to each artifact."""

    def __init__(self, command: str, args: dict, inputs: list, outputs: list):
        self.record = {
            "command": command,
            "args": args,
            "inputs": [str(p) for p in inputs],
            "outputs": [str(p) for p in outputs],
            "version": __version__,
            "started_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "finished_at": None,
        }

    def finish(self):
        self.record["finished_at"] = _dt.datetime.now(_dt.timezone.utc).isoformat()

    def write(self, artifact_path):
        path = Path(str(artifact_path) + ".manifest.json")
        _atomic_write_text(path, json.dumps(self.record, indent=2, sort_keys=True) + "\n")


def _load_manifest_args(parser_args):
    """--manifest replays a previous run's resolved arguments."""
    if getattr(parser_args, "manifest", None):
        record = json.loads(Path(parser_args.manifest).read_text(encoding="utf-8"))
        for key, value in record["args"].items():
            setattr(parser_args, key, value)
    return parser_args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) in (None, "", []):
            raise ConfigError(f"missing required argument: --{name.replace('_', '-')}")


# ---------------------------------------------------------------------------
# data plumbing shared by the training-side commands


def _direction_tag(direction) -> str:
    return f"{direction[0]}-{direction[1]}"


def _load_split(data_dir: Path, split: str) -> list[DirectionCorpus]:
    paths = sorted(data_dir.glob(f"*.{split}.tsv"))
    if not paths:
        raise DataError(f"no *.{split}.tsv files under {data_dir}")
    corpora = []
    for path in paths:
        corpora.extend(data.load_corpus_tsv(path))
    return corpora


def _build_vocab(data_dir: Path) -> Vocabulary:
    paths = sorted(data_dir.glob("*.all.tsv"))
    if not paths:
        raise DataError(f"no *.all.tsv corpus files under {data_dir}")
    corpora = []
    for path in paths:
        corpora.extend(data.load_corpus_tsv(path))
    return Vocabulary.from_corpora(corpora)


def _train_corpora(data_dir: Path, quota: int, seed: int) -> list[DirectionCorpus]:
    corpora = _load_split(data_dir, "train")
    if quota > 0:
        corpora = [data.balance(c, quota, seed) for c in corpora]
    return corpora


@contextlib.contextmanager
def _log_writer(log_path: Path | None):
    handle = open(log_path, "w", encoding="utf-8") if log_path else None

    def write(rec: dict):
        line = training.format_log_record(rec)
        print(line)
        if handle:
            handle.write(line + "\n")
            handle.flush()

    try:
        yield write
    finally:
        if handle:
            handle.close()


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    _require(args, "spec", "out")
    spec_path, out_dir = Path(args.spec), Path(args.out)
    triples = []
    for lineno, line in enumerate(spec_path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 4:
            raise ConfigError(
                f"{spec_path}:{lineno}: expected 'src_lang tgt_lang transformation size'"
            )
        src_lang, tgt_lang, transform, size = parts
        data.make_transformation(transform, args.alphabet)  # validate early
        triples.append(((src_lang, tgt_lang), transform, int(size)))
    if not triples:
        raise ConfigError(f"{spec_path}: empty corpus spec")

    out_dir.mkdir(parents=True, exist_ok=True)
    corpora = data.synthesize_toy_corpus(triples, args.seed, alphabet=args.alphabet)
    manifest = RunManifest("synth", _manifest_args(args), [spec_path], [out_dir])
    outputs = []
    for corpus in corpora:
        tag = _direction_tag(corpus.direction)
        full = out_dir / f"{tag}.all.tsv"
        data.save_corpus_tsv([corpus], full)
        outputs.append(full)
        for split, part in data.split_corpus(corpus).items():
            path = out_dir / f"{tag}.{split}.tsv"
            data.save_corpus_tsv([part], path)
            outputs.append(path)
    manifest.record["outputs"] = [str(p) for p in outputs]
    manifest.finish()
    manifest.write(out_dir / "corpus")
    print(f"synthesized {len(corpora)} directions into {out_dir}")
    return EXIT_OK


def _make_checkpoint_fn(out_path: Path):
    def save(state):
        save_model(state.model, out_path)

    return save


def cmd_train(args, role: str) -> int:
    _require(args, "data", "out")
    data_dir, out_path = Path(args.data), Path(args.out)
    vocab = _build_vocab(data_dir)
    file_cfg = parse_kv_config(args.config) if args.config else {}
    cfg, _dcfg, mcfg, _student = resolve_configs(
        args.profile, file_cfg, _flag_overrides(args), len(vocab)
    )
    init_model = None
    if getattr(args, "init_from", None):
        # CE-only counterpart to a distilled student: same architecture, same
        # parent-derived initialization, no distillation term
        from .model import init_student_from_teacher

        init_model = init_student_from_teacher(load_model(args.init_from), mcfg,
                                               seed=cfg.seed)
    corpora = _train_corpora(data_dir, args.quota, cfg.seed)
    manifest = RunManifest(role, _manifest_args(args), [data_dir], [out_path])
    manifest.record["resolved"] = {"train": asdict(cfg), "model": asdict(mcfg)}
    try:
        with _log_writer(Path(str(out_path) + ".log")) as log:
            model = training.train_supervised(
                mcfg, corpora, vocab, cfg, steps=args.steps, init_model=init_model,
                log_fn=log, checkpoint_fn=_make_checkpoint_fn(out_path),
            )
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME  # last-good checkpoint, if any, stays in place
    save_model(model, out_path)
    manifest.finish()
    manifest.write(out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_distill(args) -> int:
    _require(args, "teacher", "data", "out")
    data_dir, out_path = Path(args.data), Path(args.out)
    teacher = load_model(args.teacher)
    vocab = _build_vocab(data_dir)
    if len(vocab) != teacher.config.vocab_size:
        raise ConfigError(
            f"teacher vocab size {teacher.config.vocab_size} does not match "
            f"data vocabulary {len(vocab)}"
        )
    file_cfg = parse_kv_config(args.config) if args.config else {}
    cfg, dcfg, mcfg, student = resolve_configs(
        args.profile, file_cfg, _flag_overrides(args), len(vocab)
    )
    scfg_kwargs = asdict(teacher.config)
    scfg_kwargs["encoder_layers"] = student["student_encoder_layers"]
    scfg_kwargs["decoder_layers"] = student["student_decoder_layers"]
    student_cfg = ModelConfig(**scfg_kwargs)
    corpora = _train_corpora(data_dir, args.quota, cfg.seed)
    manifest = RunManifest("distill", _manifest_args(args), [data_dir, args.teacher], [out_path])
    manifest.record["resolved"] = {"train": asdict(cfg), "distill": asdict(dcfg),
                                   "student": asdict(student_cfg)}
    try:
        with _log_writer(Path(str(out_path) + ".log")) as log:
            model = training.distill(
                teacher, student_cfg, corpora, vocab, cfg, dcfg,
                log_fn=log, checkpoint_fn=_make_checkpoint_fn(out_path),
            )
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    save_model(model, out_path)
    manifest.finish()
    manifest.write(out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    _require(args, "checkpoint", "data", "direction", "steps", "out")
    data_dir, out_path = Path(args.data), Path(args.out)
    model = load_model(args.checkpoint)
    vocab = _build_vocab(data_dir)
    src_lang, _, tgt_lang = args.direction.partition("-")
    if not tgt_lang:
        raise ConfigError(f"--direction must look like 'src-tgt', got {args.direction!r}")
    corpora = [c for c in _load_split(data_dir, "train")
               if tuple(c.direction) == (src_lang, tgt_lang)]
    if not corpora:
        raise DataError(f"no training data for direction {args.direction}")
    file_cfg = parse_kv_config(args.config) if args.config else {}
    cfg, _dcfg, _mcfg, _student = resolve_configs(
        args.profile, file_cfg, _flag_overrides(args), len(vocab)
    )
    manifest = RunManifest("finetune", _manifest_args(args), [data_dir, args.checkpoint], [out_path])
    manifest.record["resolved"] = {"train": asdict(cfg)}
    try:
        with _log_writer(Path(str(out_path) + ".log")) as log:
            tuned = training.finetune(model, corpora[0], vocab, cfg, args.steps, log_fn=log)
    except TrainingError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    save_model(tuned, out_path)
    manifest.finish()
    manifest.write(out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def _decode_cfg_from_args(args) -> DecodeConfig:
    return DecodeConfig(
        beam_size=args.beam,
        length_penalty=args.length_penalty,
        max_len=args.max_len,
    )


def cmd_evaluate(args) -> int:
    _require(args, "checkpoint", "data", "out")
    data_dir, out_path = Path(args.data), Path(args.out)
    model = load_model(args.checkpoint)
    vocab = _build_vocab(data_dir)
    corpora = _load_split(data_dir, args.split)
    manifest = RunManifest("evaluate", _manifest_args(args), [data_dir, args.checkpoint], [out_path])
    scores = evaluation.evaluate_model(model, corpora, vocab, _decode_cfg_from_args(args))
    sizes = {tuple(c.direction): len(c.pairs) for c in corpora}
    for d, s in sorted(scores.items()):
        print(f"{_direction_tag(d)}: {s.max_len_hits}/{sizes[d]} hit max_len", file=sys.stderr)
    lines = [
        f"{_direction_tag(d)}\t{s.score:.6f}"
        for d, s in sorted(scores.items())
    ]
    _atomic_write_text(out_path, "\n".join(lines) + "\n")
    manifest.finish()
    manifest.write(out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def _load_scores_tsv(path) -> dict:
    scores = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        tag, _, value = line.partition("\t")
        src_lang, _, tgt_lang = tag.partition("-")
        if not tgt_lang or not value:
            raise DataError(f"{path}:{lineno}: expected 'src-tgt<TAB>score'")
        scores[(src_lang, tgt_lang)] = float(value)
    return scores


def cmd_report(args) -> int:
    _require(args, "scores", "resources")
    scores = {}
    for path in args.scores:
        scores.update(_load_scores_tsv(path))
    resources = data.load_resources_tsv(args.resources)
    reference = _load_scores_tsv(args.reference) if args.reference else None
    report = evaluation.build_report(
        scores, resources,
        filter_floor=args.filter_floor if reference is not None else None,
        reference_scores=reference, all_cells=args.all_cells,
    )
    table = evaluation.format_report_table(report, all_cells=args.all_cells)
    machine = evaluation.format_report_machine(report, all_cells=args.all_cells)
    print(table)
    print(machine)
    if args.out:
        _atomic_write_text(Path(args.out), table + "\n" + machine + "\n")
        manifest = RunManifest("report", _manifest_args(args),
                               list(args.scores) + [args.resources], [args.out])
        manifest.finish()
        manifest.write(args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    _require(args, "checkpoints", "data")
    data_dir = Path(args.data)
    vocab = _build_vocab(data_dir)
    corpora = _load_split(data_dir, args.split)
    sentences = []
    for corpus in sorted(corpora, key=lambda c: c.direction):
        for pair in corpus.pairs[: args.sentences]:
            sentences.append((tuple(corpus.direction), list(pair.src)))
    if args.sentences_total:
        sentences = sentences[: args.sentences_total]

    named = []
    for item in args.checkpoints:
        name, _, path = item.partition("=")
        if not path:
            name, path = Path(item).stem, item
        named.append((name, path))
    decode_cfg = _decode_cfg_from_args(args)
    latencies = {}
    for name, path in named:
        model = load_model(path)
        latencies[name] = evaluation.measure_latency(
            model, sentences, vocab, decode_cfg, warmup=args.warmup, reps=args.reps
        )
    reference = args.reference or named[0][0]
    ratios = evaluation.speed_ratio(latencies, reference)
    lines = [f"{name}\t{latencies[name]:.6f}\t{ratios[name]:.3f}" for name, _ in named]
    print("model\tsec_per_sentence\tspeedup")
    print("\n".join(lines))
    if args.out:
        _atomic_write_text(Path(args.out),
                           "model\tsec_per_sentence\tspeedup\n" + "\n".join(lines) + "\n")
        manifest = RunManifest("bench", _manifest_args(args), [data_dir], [args.out])
        manifest.finish()
        manifest.write(args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _manifest_args(args) -> dict:
    skip = {"func", "manifest"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _flag_overrides(args) -> dict:
    keys = ("lr", "seed", "phase1_steps", "phase2_steps", "batch_tokens",
            "label_smoothing", "alpha_mode", "alpha_init", "warmup_steps",
            "student_encoder_layers", "student_decoder_layers",
            "encoder_layers", "decoder_layers")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)}


def _add_common_train_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--profile", default="toy", help="'toy' (default) or 'paper'")
    p.add_argument("--quota", type=int, default=0,
                   help="balance each direction's training data to this many pairs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--warmup-steps", dest="warmup_steps", type=int, default=None)
    p.add_argument("--phase1-steps", dest="phase1_steps", type=int, default=None)
    p.add_argument("--phase2-steps", dest="phase2_steps", type=int, default=None)
    p.add_argument("--batch-tokens", dest="batch_tokens", type=int, default=None)
    p.add_argument("--label-smoothing", dest="label_smoothing", type=float, default=None)
    p.add_argument("--manifest", help="re-run with a saved manifest's arguments")


def _add_decode_flags(p):
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--length-penalty", dest="length_penalty", type=float, default=1.0)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowmt",
        description="Desk-scale seq2seq distillation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="synthesize toy corpora from a spec file")
    p.add_argument("--spec")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphabet", default="abcdef")
    p.add_argument("--manifest", help="re-run with a saved manifest's arguments")
    p.set_defaults(func=cmd_synth)

    for name, role in (("train-teacher", "train-teacher"),
                       ("train-baseline", "train-baseline")):
        p = sub.add_parser(name, help=f"{role}: supervised CE training")
        p.add_argument("--data")
        p.add_argument("--out")
        p.add_argument("--steps", type=int, default=None,
                       help="total optimizer steps (default: phase1+phase2)")
        p.add_argument("--encoder-layers", dest="encoder_layers", type=int, default=None)
        p.add_argument("--decoder-layers", dest="decoder_layers", type=int, default=None)
        p.add_argument("--init-from", dest="init_from", default=None,
                       help="initialize from this checkpoint's first layers")
        _add_common_train_flags(p)
        p.set_defaults(func=lambda a, role=role: cmd_train(a, role))

    p = sub.add_parser("distill", help="two-phase knowledge distillation")
    p.add_argument("--teacher")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--student-encoder-layers", dest="student_encoder_layers",
                   type=int, default=None)
    p.add_argument("--student-decoder-layers", dest="student_decoder_layers",
                   type=int, default=None)
    p.add_argument("--alpha-mode", dest="alpha_mode", default=None)
    p.add_argument("--alpha-init", dest="alpha_init", type=float, default=None)
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("finetune", help="CE-only recovery on one direction")
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--direction", help="e.g. en-fr")
    p.add_argument("--steps", type=int)
    p.add_argument("--out")
    _add_common_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="decode a split and write per-direction BLEU")
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.add_argument("--out")
    _add_decode_flags(p)
    p.add_argument("--manifest", help="re-run with a saved manifest's arguments")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="category table from score TSVs")
    p.add_argument("--scores", nargs="+")
    p.add_argument("--resources",
                   help="TSV of 'language<TAB>sentences to/from English'")
    p.add_argument("--reference", default=None,
                   help="reference-model score TSV for the filter floor")
    p.add_argument("--filter-floor", dest="filter_floor", type=float, default=3.0)
    p.add_argument("--all-cells", dest="all_cells", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--manifest", help="re-run with a saved manifest's arguments")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="batch-1 latency and speed-up ratios")
    p.add_argument("--checkpoints", nargs="+",
                   help="name=path entries (bare paths use the file stem)")
    p.add_argument("--data")
    p.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p.add_argument("--sentences", type=int, default=50,
                   help="sentences per direction")
    p.add_argument("--sentences-total", dest="sentences_total", type=int, default=0)
    p.add_argument("--reference", default=None,
                   help="reference model name (default: first checkpoint)")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", default=None)
    _add_decode_flags(p)
    p.add_argument("--manifest", help="re-run with a saved manifest's arguments")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _load_manifest_args(args)
        return args.func(args)
    except (ConfigError, ContractError, DataError, VocabularyError,
            DistributionError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ShallowMTError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
