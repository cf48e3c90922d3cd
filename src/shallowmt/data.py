"""Corpus representation, toy corpus synthesis, tokenization, and the
balanced per-direction sampler.

A corpus is a list of per-direction record sets; a direction is an ordered
(src_lang, tgt_lang) pair. Corpus files are UTF-8 TSV, one record per line:

    src_lang <TAB> tgt_lang <TAB> src_text <TAB> tgt_text
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError, VocabularyError

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"


def lang_code_token(lang: str) -> str:
    return f"<lang:{lang}>"


# ---------------------------------------------------------------------------
# tokenization


@dataclass(frozen=True)
class TokenizerSpec:
    """Named, pluggable tokenizer. Built-ins: 'whitespace' and 'char'."""

    name: str = "whitespace"


def tokenize(text: str, spec: TokenizerSpec) -> list[str]:
    if spec.name == "whitespace":
        return text.split(" ") if text else []
    if spec.name == "char":
        return list(text)
    raise VocabularyError(f"unknown tokenizer spec: {spec.name!r}")


def detokenize(tokens: list[str], spec: TokenizerSpec) -> str:
    if spec.name == "whitespace":
        return " ".join(tokens)
    if spec.name == "char":
        return "".join(tokens)
    raise VocabularyError(f"unknown tokenizer spec: {spec.name!r}")


# ---------------------------------------------------------------------------
# vocabulary


class Vocabulary:
    """Dense token-id table shared by source and target sides.

    Ids 0..3 are <pad>, <bos>, <eos>, <unk>; one language-code token per
    registered language follows, then the content tokens.
    """

    def __init__(self, content_tokens: list[str], languages: list[str]):
        specials = [PAD, BOS, EOS, UNK]
        codes = [lang_code_token(lang) for lang in languages]
        overlap = set(specials + codes) & set(content_tokens)
        if overlap:
            raise VocabularyError(f"content tokens collide with specials: {sorted(overlap)}")
        if len(set(content_tokens)) != len(content_tokens):
            raise VocabularyError("duplicate content tokens")
        self.tokens: list[str] = specials + codes + content_tokens
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        self.pad_id, self.bos_id, self.eos_id, self.unk_id = 0, 1, 2, 3
        self._lang_ids = {lang: self._ids[lang_code_token(lang)] for lang in languages}

    def __len__(self):
        return len(self.tokens)

    @property
    def languages(self) -> list[str]:
        return list(self._lang_ids)

    def lang_code(self, lang: str) -> int:
        if lang not in self._lang_ids:
            raise VocabularyError(f"language {lang!r} has no registered code token")
        return self._lang_ids[lang]

    def encode(self, tokens) -> list[int]:
        """Token strings to ids; unknown tokens map to <unk>."""
        return [self._ids.get(t, self.unk_id) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    @classmethod
    def from_corpora(cls, corpora: list["DirectionCorpus"]) -> "Vocabulary":
        """Deterministic vocabulary over every token and language seen."""
        tokens: set[str] = set()
        langs: set[str] = set()
        for corpus in corpora:
            langs.update(corpus.direction)
            for pair in corpus.pairs:
                tokens.update(pair.src)
                tokens.update(pair.tgt)
        return cls(sorted(tokens), sorted(langs))


# ---------------------------------------------------------------------------
# corpus records


@dataclass(frozen=True)
class TranslationPair:
    src_lang: str
    tgt_lang: str
    src: tuple[str, ...]
    tgt: tuple[str, ...]


@dataclass
class DirectionCorpus:
    direction: tuple[str, str]
    pairs: list[TranslationPair]
    declared_size: int = field(default=-1)

    def __post_init__(self):
        if self.declared_size < 0:
            self.declared_size = len(self.pairs)
        for p in self.pairs:
            if (p.src_lang, p.tgt_lang) != tuple(self.direction):
                raise DataError(
                    f"pair direction {(p.src_lang, p.tgt_lang)} does not match "
                    f"corpus direction {self.direction}"
                )


def encode_pair(pair: TranslationPair, vocab: Vocabulary) -> tuple[list[int], list[int]]:
    """Prepare a pair for the model: ids with <eos> appended to both sides."""
    if not pair.src or not pair.tgt:
        raise DataError("translation pair has an empty side")
    src = vocab.encode(pair.src) + [vocab.eos_id]
    tgt = vocab.encode(pair.tgt) + [vocab.eos_id]
    return src, tgt


# ---------------------------------------------------------------------------
# balanced sampling


def balance(corpus: DirectionCorpus, quota: int, seed: int) -> DirectionCorpus:
    """Resize a direction corpus to exactly `quota` pairs.

    Undersized corpora are repeated whole floor(quota/size) times and topped
    up with a seeded random remainder sample without replacement, so per-pair
    multiplicities differ by at most one. Oversized corpora are uniformly
    subsampled without replacement.
    """
    if quota <= 0:
        raise ContractError(f"balance: quota must be positive, got {quota}")
    n = len(corpus.pairs)
    if n == 0:
        raise DataError(f"balance: empty corpus for direction {corpus.direction}")
    if n == quota:
        return replace(corpus, pairs=list(corpus.pairs))
    rng = np.random.default_rng(seed)
    if n < quota:
        reps, rem = divmod(quota, n)
        picked = sorted(rng.choice(n, size=rem, replace=False)) if rem else []
        pairs = list(corpus.pairs) * reps + [corpus.pairs[i] for i in picked]
    else:
        picked = sorted(rng.choice(n, size=quota, replace=False))
        pairs = [corpus.pairs[i] for i in picked]
    return replace(corpus, pairs=pairs)


# ---------------------------------------------------------------------------
# toy corpus synthesis

_VOWEL_MAP = {"a": "e", "e": "i", "i": "o", "o": "u", "u": "a"}


def _caesar(token: str, shift: int, alphabet: str) -> str:
    out = []
    for ch in token:
        i = alphabet.find(ch)
        out.append(alphabet[(i + shift) % len(alphabet)] if i >= 0 else ch)
    return "".join(out)


def make_transformation(name: str, alphabet: str):
    """Resolve a transformation name to a token-sequence map.

    Names: identity, reverse, duplicate, vowel_swap, caesar<k>; compose
    left-to-right with '+' (e.g. 'reverse+caesar1').
    """
    stages = []
    for part in name.split("+"):
        part = part.strip()
        m = re.fullmatch(r"caesar-?(\d+)", part)
        if m:
            k = int(m.group(1))
            stages.append(lambda toks, k=k: [_caesar(t, k, alphabet) for t in toks])
        elif part == "identity":
            stages.append(lambda toks: list(toks))
        elif part == "reverse":
            stages.append(lambda toks: list(reversed(toks)))
        elif part == "duplicate":
            stages.append(lambda toks: [t for t in toks for _ in range(2)])
        elif part == "vowel_swap":
            stages.append(
                lambda toks: ["".join(_VOWEL_MAP.get(c, c) for c in t) for t in toks]
            )
        else:
            raise ConfigError(f"unknown transformation: {part!r}")

    def apply(tokens):
        for stage in stages:
            tokens = stage(tokens)
        return tokens

    return apply


def synthesize_toy_corpus(
    spec: list[tuple[tuple[str, str], str, int]],
    seed: int,
    alphabet: str = "abcdef",
    min_len: int = 3,
    max_len: int = 12,
) -> list[DirectionCorpus]:
    """Generate per-direction parallel corpora from deterministic string maps.

    Source sentences are uniform random token strings over `alphabet` with
    lengths uniform in [min_len, max_len]; targets are the named
    transformation of the source. Deterministic given `seed`.
    """
    letters = list(alphabet)
    corpora = []
    for idx, (direction, transform_name, size) in enumerate(spec):
        transform = make_transformation(transform_name, alphabet)
        rng = np.random.default_rng([seed, idx])
        src_lang, tgt_lang = direction
        pairs = []
        for _ in range(size):
            length = int(rng.integers(min_len, max_len + 1))
            src = tuple(letters[i] for i in rng.integers(0, len(letters), size=length))
            pairs.append(
                TranslationPair(src_lang, tgt_lang, src, tuple(transform(src)))
            )
        corpora.append(DirectionCorpus(tuple(direction), pairs))
    return corpora


# ---------------------------------------------------------------------------
# deterministic splits

_SPLIT_NAMES = ("train", "dev", "test")


def _bucket(pair: TranslationPair) -> float:
    key = f"{pair.src_lang}\t{pair.tgt_lang}\t{' '.join(pair.src)}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def split_corpus(
    corpus: DirectionCorpus, ratios: tuple[float, float, float] = (0.90, 0.05, 0.05)
) -> dict[str, DirectionCorpus]:
    """Hash-partition a corpus into train/dev/test.

    The bucket is a pure function of the direction and source text, so a
    sentence can never land in two splits, across runs or machines.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ContractError(f"split ratios must sum to 1, got {ratios}")
    edges = np.cumsum(ratios)
    splits: dict[str, list[TranslationPair]] = {name: [] for name in _SPLIT_NAMES}
    for pair in corpus.pairs:
        b = _bucket(pair)
        name = _SPLIT_NAMES[int(np.searchsorted(edges, b, side="right"))]
        splits[name].append(pair)
    return {
        name: DirectionCorpus(corpus.direction, pairs)
        for name, pairs in splits.items()
    }


# ---------------------------------------------------------------------------
# resource categories


class ResourceCategory(enum.IntEnum):
    VERY_LOW = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @property
    def label(self) -> str:
        return {0: "VL", 1: "L", 2: "M", 3: "H"}[self.value]


@dataclass(frozen=True)
class LanguageResourceEntry:
    language: str
    size_to_from_english: int


def classify_resource(entry: LanguageResourceEntry) -> ResourceCategory:
    """Bucket a language by its parallel-sentence count aligned with English.

    Boundaries are inclusive on the upper edge: <=100K very-low,
    (100K, 1M] low, (1M, 100M] medium, above that high.
    """
    n = entry.size_to_from_english
    if n < 0:
        raise ContractError(f"negative corpus size for {entry.language!r}")
    if n <= 100_000:
        return ResourceCategory.VERY_LOW
    if n <= 1_000_000:
        return ResourceCategory.LOW
    if n <= 100_000_000:
        return ResourceCategory.MEDIUM
    return ResourceCategory.HIGH


def pair_category(src_cat: ResourceCategory, tgt_cat: ResourceCategory) -> ResourceCategory:
    """A direction's category is the minimum of its two language categories."""
    return min(src_cat, tgt_cat)


# ---------------------------------------------------------------------------
# file I/O


def save_corpus_tsv(corpora: list[DirectionCorpus], path) -> None:
    lines = []
    for corpus in corpora:
        for p in corpus.pairs:
            lines.append(f"{p.src_lang}\t{p.tgt_lang}\t{' '.join(p.src)}\t{' '.join(p.tgt)}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_corpus_tsv(path) -> list[DirectionCorpus]:
    """Read a corpus TSV, grouping records per direction in file order."""
    grouped: dict[tuple[str, str], list[TranslationPair]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        src_lang, tgt_lang, src_text, tgt_text = parts
        for side, text in (("source", src_text), ("target", tgt_text)):
            if not text:
                raise DataError(f"{path}:{lineno}: empty {side} field")
        pair = TranslationPair(
            src_lang, tgt_lang, tuple(src_text.split(" ")), tuple(tgt_text.split(" "))
        )
        grouped.setdefault((src_lang, tgt_lang), []).append(pair)
    return [DirectionCorpus(d, pairs) for d, pairs in grouped.items()]


def load_resources_tsv(path) -> list[LanguageResourceEntry]:
    """Read 'language <TAB> sentence_count' lines."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'lang<TAB>count'")
        entries.append(LanguageResourceEntry(parts[0], int(parts[1])))
    return entries
