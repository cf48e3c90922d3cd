"""Transformer encoder-decoder with independently configurable depths.

The encoder input carries the target-language code token at position 0; the
decoder input starts with <bos> and has no language code. Blocks are
pre-layer-norm; positions are fixed sinusoidal. The same type serves teacher
and student; students are initialized from a bit-copy of the teacher's
embeddings, output projection, and first N encoder/decoder layers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Vocabulary, lang_code_token
from .errors import ConfigError, ContractError, VocabularyError

MASK_NEG = -1e9  # additive attention mask; exp() underflows to exactly 0.0

CHECKPOINT_MAGIC = b"SHMT0001"


@dataclass
class ModelConfig:
    encoder_layers: int
    decoder_layers: int
    emb_dim: int
    ffn_dim: int
    num_heads: int
    vocab_size: int
    max_seq_len: int = 64
    dropout: float = 0.0
    attention_dropout: float = 0.0
    share_embeddings: bool = True

    def __post_init__(self):
        for name in ("encoder_layers", "decoder_layers", "emb_dim", "ffn_dim",
                     "num_heads", "vocab_size", "max_seq_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.emb_dim % self.num_heads != 0:
            raise ConfigError(
                f"emb_dim {self.emb_dim} not divisible by num_heads {self.num_heads}"
            )
        for name in ("dropout", "attention_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")


def _layer_param_shapes(kind: str, index: int, cfg: ModelConfig):
    """Shapes for one encoder or decoder layer, in a fixed order."""
    d, f = cfg.emb_dim, cfg.ffn_dim
    prefix = f"{kind}.{index}"
    shapes = []

    def attn(block):
        return [
            (f"{prefix}.{block}.wq", (d, d)), (f"{prefix}.{block}.bq", (d,)),
            (f"{prefix}.{block}.wk", (d, d)), (f"{prefix}.{block}.bk", (d,)),
            (f"{prefix}.{block}.wv", (d, d)), (f"{prefix}.{block}.bv", (d,)),
            (f"{prefix}.{block}.wo", (d, d)), (f"{prefix}.{block}.bo", (d,)),
        ]

    shapes += [(f"{prefix}.ln1.g", (d,)), (f"{prefix}.ln1.b", (d,))]
    shapes += attn("self")
    if kind == "dec":
        shapes += [(f"{prefix}.ln_cross.g", (d,)), (f"{prefix}.ln_cross.b", (d,))]
        shapes += attn("cross")
    shapes += [(f"{prefix}.ln2.g", (d,)), (f"{prefix}.ln2.b", (d,))]
    shapes += [
        (f"{prefix}.ffn.w1", (d, f)), (f"{prefix}.ffn.b1", (f,)),
        (f"{prefix}.ffn.w2", (f, d)), (f"{prefix}.ffn.b2", (d,)),
    ]
    return shapes


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter tensor's name and shape, fully determined by config."""
    d, v = cfg.emb_dim, cfg.vocab_size
    shapes: list[tuple[str, tuple[int, ...]]] = []
    if cfg.share_embeddings:
        shapes.append(("embed", (v, d)))
    else:
        shapes += [("src_embed", (v, d)), ("tgt_embed", (v, d)),
                   ("out_w", (d, v)), ("out_b", (v,))]
    for i in range(cfg.encoder_layers):
        shapes += _layer_param_shapes("enc", i, cfg)
    shapes += [("enc.norm.g", (d,)), ("enc.norm.b", (d,))]
    for i in range(cfg.decoder_layers):
        shapes += _layer_param_shapes("dec", i, cfg)
    shapes += [("dec.norm.g", (d,)), ("dec.norm.b", (d,))]
    return shapes


def _init_array(name: str, shape, rng: np.random.Generator) -> np.ndarray:
    if name.endswith((".g",)):
        return np.ones(shape)
    if name.endswith((".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2", "out_b")):
        return np.zeros(shape)
    fan_in = shape[-1] if len(shape) == 1 else shape[-2]
    if "embed" in name:
        fan_in = shape[-1]
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    i = np.arange(dim // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    pe = np.zeros((max_len, dim))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


class Model:
    """Parameter container plus the forward computation."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self._pe = sinusoidal_positions(config.max_seq_len, config.emb_dim)

    @classmethod
    def create(cls, config: ModelConfig, seed: int) -> "Model":
        rng = np.random.default_rng(seed)
        params = {
            name: Tensor(_init_array(name, shape, rng), requires_grad=True)
            for name, shape in param_shapes(config)
        }
        return cls(config, params)

    def clone(self) -> "Model":
        params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in self.params.items()}
        return Model(self.config, params)

    # -- embedding / projection hooks (shared vs separate tables) ----------

    def _embed_table(self, side: str) -> Tensor:
        if self.config.share_embeddings:
            return self.params["embed"]
        return self.params["src_embed" if side == "src" else "tgt_embed"]

    def _project_logits(self, x: Tensor) -> Tensor:
        if self.config.share_embeddings:
            return ad.linear(x, ad.transpose(self.params["embed"], (1, 0)))
        return ad.linear(x, self.params["out_w"], self.params["out_b"])

    def _embed(self, ids: np.ndarray, side: str, train: bool, rng, start: int = 0) -> Tensor:
        d = self.config.emb_dim
        x = ad.scale(ad.embedding_lookup(self._embed_table(side), ids), math.sqrt(d))
        x = ad.add(x, Tensor(self._pe[start : start + ids.shape[-1]]))
        return ad.dropout(x, self.config.dropout, rng, train)

    def _split_heads(self, t: Tensor) -> Tensor:
        """[B, S, D] -> [B, H, S, D/H]."""
        heads = self.config.num_heads
        b, s, d = t.shape
        return ad.transpose(ad.reshape(t, (b, s, heads, d // heads)), (0, 2, 1, 3))

    def _kv(self, prefix: str, x: Tensor) -> tuple[Tensor, Tensor]:
        """Keys and values of an attention block over x, heads split."""
        p = self.params
        return (self._split_heads(ad.linear(x, p[f"{prefix}.wk"], p[f"{prefix}.bk"])),
                self._split_heads(ad.linear(x, p[f"{prefix}.wv"], p[f"{prefix}.bv"])))

    def _attn(self, prefix: str, x_q: Tensor, x_kv: Tensor, mask, train: bool, rng,
              cache: DecoderCache | None = None) -> Tensor:
        """Multi-head attention of x_q over x_kv. With a cache, a block whose
        K/V the cache holds for the whole sentence (cross-attention) reuses
        them and ignores x_kv; any other block appends the K/V of x_kv's rows
        to its cached ones and attends over all of them."""
        p, cfg = self.params, self.config
        q = self._split_heads(ad.linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"]))
        if cache is None:
            k, v = self._kv(prefix, x_kv)
        elif prefix in cache.cross:
            k, v = cache.cross[prefix]
        else:
            k, v = cache.append(prefix, *self._kv(prefix, x_kv))
        attn = ad.softmax(ad.masked_attention_scores(q, k, mask), axis=-1)
        attn = ad.dropout(attn, cfg.attention_dropout, rng, train)
        ctx = ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3))
        b, s = ctx.shape[0], ctx.shape[1]
        ctx = ad.reshape(ctx, (b, s, cfg.emb_dim))
        return ad.linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])

    def _ffn(self, prefix: str, x: Tensor, train: bool, rng) -> Tensor:
        p = self.params
        h = ad.relu(ad.linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        h = ad.dropout(h, self.config.dropout, rng, train)
        return ad.linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def encode(self, src_ids: np.ndarray, src_key_mask, train: bool = False, rng=None) -> Tensor:
        """Encoder stack: src_ids [B, S] -> states [B, S, D]."""
        cfg = self.config
        x = self._embed(src_ids, "src", train, rng)
        for i in range(cfg.encoder_layers):
            pre = f"enc.{i}"
            normed = self._ln(f"{pre}.ln1", x)
            h = self._attn(f"{pre}.self", normed, normed, src_key_mask, train, rng)
            x = ad.add(x, ad.dropout(h, cfg.dropout, rng, train))
            h = self._ffn(f"{pre}.ffn", self._ln(f"{pre}.ln2", x), train, rng)
            x = ad.add(x, ad.dropout(h, cfg.dropout, rng, train))
        return self._ln("enc.norm", x)

    def decode(self, enc_out: Tensor | None, tgt_ids: np.ndarray, self_mask, cross_mask,
               train: bool = False, rng=None, cache: DecoderCache | None = None) -> Tensor:
        """Decoder stack: tgt_ids [B, T] -> logits [B, T, V].

        With a `DecoderCache`, tgt_ids holds only the positions after the
        cached ones: they are embedded at their offsets, their self-attention
        K/V join the cache, and the cross-attention K/V come from the cache
        (`enc_out` is not read and may be None). `self_mask` then covers the
        cached keys too.
        """
        cfg = self.config
        start = 0 if cache is None else cache.length
        y = self._embed(tgt_ids, "tgt", train, rng, start)
        for i in range(cfg.decoder_layers):
            pre = f"dec.{i}"
            normed = self._ln(f"{pre}.ln1", y)
            h = self._attn(f"{pre}.self", normed, normed, self_mask, train, rng, cache)
            y = ad.add(y, ad.dropout(h, cfg.dropout, rng, train))
            h = self._attn(f"{pre}.cross", self._ln(f"{pre}.ln_cross", y), enc_out, cross_mask,
                           train, rng, cache)
            y = ad.add(y, ad.dropout(h, cfg.dropout, rng, train))
            h = self._ffn(f"{pre}.ffn", self._ln(f"{pre}.ln2", y), train, rng)
            y = ad.add(y, ad.dropout(h, cfg.dropout, rng, train))
        if cache is not None:
            cache.length += tgt_ids.shape[-1]
        return self._project_logits(self._ln("dec.norm", y))

    def logits_for_prefix(self, src_ids, prefix_ids) -> np.ndarray:
        """Next-token logits row for decoding: [V] for the last prefix position.

        Recomputes the whole prefix; the reference for `decode_step`."""
        with ad.no_grad():
            logits = forward(self, src_ids, prefix_ids, train_mode=False)
        return logits.data[-1]

    def begin_decode(self, src_ids) -> DecoderCache:
        """Encode one source sentence and compute every decoder layer's
        cross-attention K/V of it, ready for `decode_step`."""
        src = np.asarray(src_ids, dtype=np.int64)[None, :]
        _validate_ids(src, self.config, "source")
        with ad.no_grad():
            enc_out = self.encode(src, None)
            cross = {f"dec.{i}.cross": self._kv(f"dec.{i}.cross", enc_out)
                     for i in range(self.config.decoder_layers)}
        return DecoderCache(cross)

    def decode_step(self, state: DecoderCache, tokens) -> np.ndarray:
        """Feed one token per hypothesis (`[B]`, the first call gets <bos>)
        and return each hypothesis's next-token logits, [B, V].

        Only the new position is computed: it attends over the cached
        self-attention K/V, so it needs no causal mask. The batch of one
        sentence's cross-attention K/V broadcasts over the B hypotheses.
        """
        tgt = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        if state.length >= self.config.max_seq_len:
            raise ContractError(
                f"target prefix: length {state.length + 1} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        _validate_ids(tgt, self.config, "target token")
        with ad.no_grad():
            logits = self.decode(None, tgt, None, None, cache=state)
        return logits.data[:, 0]


@dataclass
class DecoderCache:
    """One sentence's decoder state between `decode_step` calls.

    `cross` maps each decoder layer's cross-attention block to the K/V of
    the encoder output, [1, H, S, D/H], computed once per sentence. `self_kv`
    maps each self-attention block to the K/V of the `length` positions fed
    so far, [B, H, length, D/H], one row per hypothesis.
    """

    cross: dict[str, tuple[Tensor, Tensor]]
    self_kv: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)
    length: int = 0

    def append(self, prefix: str, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Extend a self-attention block's K/V by new positions; returns all."""
        if prefix in self.self_kv:
            old_k, old_v = self.self_kv[prefix]
            k, v = ad.concat([old_k, k], axis=2), ad.concat([old_v, v], axis=2)
        self.self_kv[prefix] = (k, v)
        return k, v

    def reorder(self, parents) -> None:
        """Keep hypothesis rows `parents`, in that order (beam selection)."""
        idx = np.asarray(parents, dtype=np.int64)
        self.self_kv = {name: (Tensor(k.data[idx]), Tensor(v.data[idx]))
                        for name, (k, v) in self.self_kv.items()}


def _validate_ids(ids: np.ndarray, cfg: ModelConfig, what: str):
    if ids.size == 0:
        raise ContractError(f"{what}: empty token sequence")
    if ids.shape[-1] > cfg.max_seq_len:
        raise ContractError(
            f"{what}: length {ids.shape[-1]} exceeds max_seq_len {cfg.max_seq_len}"
        )
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise VocabularyError(f"{what}: token id {bad} outside vocabulary of size {cfg.vocab_size}")


def causal_mask(t: int) -> np.ndarray:
    """[1, 1, T, T] additive mask forbidding attention to future positions."""
    m = np.where(np.triu(np.ones((t, t)), k=1) > 0, MASK_NEG, 0.0)
    return m[None, None]


def pad_key_mask(pad: np.ndarray) -> np.ndarray:
    """pad [B, S] booleans -> [B, 1, 1, S] additive mask over keys."""
    return np.where(pad, MASK_NEG, 0.0)[:, None, None, :]


def forward_batch(model: Model, src_ids: np.ndarray, tgt_in_ids: np.ndarray,
                  src_pad: np.ndarray | None = None, tgt_pad: np.ndarray | None = None,
                  train_mode: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Batched forward: padded id matrices -> logits [B, T, V].

    `src_pad`/`tgt_pad` are boolean matrices marking padding positions; padded
    keys receive exactly zero attention weight, so per-sentence outputs are
    identical to unpadded single-sentence runs.
    """
    cfg = model.config
    src_ids = np.asarray(src_ids, dtype=np.int64)
    tgt_in_ids = np.asarray(tgt_in_ids, dtype=np.int64)
    _validate_ids(src_ids, cfg, "source")
    _validate_ids(tgt_in_ids, cfg, "target prefix")
    if train_mode and (cfg.dropout > 0 or cfg.attention_dropout > 0) and rng is None:
        raise ContractError("train_mode with dropout requires an rng")

    b, t = tgt_in_ids.shape
    src_key = Tensor(pad_key_mask(src_pad)) if src_pad is not None else None
    self_mask = causal_mask(t)
    if tgt_pad is not None:
        self_mask = self_mask + pad_key_mask(tgt_pad)
    enc_out = model.encode(src_ids, src_key, train_mode, rng)
    return model.decode(enc_out, tgt_in_ids, Tensor(self_mask), src_key, train_mode, rng)


def forward(model: Model, source, target_prefix, train_mode: bool = False,
            rng: np.random.Generator | None = None) -> Tensor:
    """Single-sentence forward. `source` already carries the target-language
    code at position 0; `target_prefix` starts with <bos>. Returns logits
    [target_len, vocab_size]; row j sees only target_prefix[0..j].
    """
    src = np.asarray(source, dtype=np.int64)[None, :]
    tgt = np.asarray(target_prefix, dtype=np.int64)[None, :]
    logits = forward_batch(model, src, tgt, train_mode=train_mode, rng=rng)
    return ad.reshape(logits, logits.shape[1:])


def encode_source(pair_direction: tuple[str, str], source_tokens, vocab: Vocabulary) -> list:
    """Prefix the source with the target-language code token.

    The decoder side never receives a language code; it starts with <bos>.
    """
    src_lang, tgt_lang = pair_direction
    for lang in (src_lang, tgt_lang):
        vocab.lang_code(lang)  # raises VocabularyError if unregistered
    return [lang_code_token(tgt_lang)] + list(source_tokens)


def init_student_from_teacher(teacher: Model, student_config: ModelConfig, seed: int = 0) -> Model:
    """Build a student whose embeddings, output projection, and first
    encoder/decoder layers are bit-copies of the teacher's.
    """
    tcfg = teacher.config
    for field in ("emb_dim", "ffn_dim", "num_heads", "vocab_size", "share_embeddings"):
        if getattr(tcfg, field) != getattr(student_config, field):
            raise ConfigError(
                f"teacher/student mismatch on {field}: "
                f"{getattr(tcfg, field)} vs {getattr(student_config, field)}"
            )
    if student_config.encoder_layers > tcfg.encoder_layers:
        raise ConfigError("student has more encoder layers than teacher")
    if student_config.decoder_layers > tcfg.decoder_layers:
        raise ConfigError("student has more decoder layers than teacher")

    student = Model.create(student_config, seed)
    copied = {name for name, _ in param_shapes(student_config)
              if not name.startswith(("enc.", "dec.")) or name.startswith(("enc.norm", "dec.norm"))}
    for i in range(student_config.encoder_layers):
        copied.update(name for name, _ in _layer_param_shapes("enc", i, student_config))
    for i in range(student_config.decoder_layers):
        copied.update(name for name, _ in _layer_param_shapes("dec", i, student_config))
    for name in sorted(copied):
        student.params[name] = Tensor(teacher.params[name].data.copy(), requires_grad=True)
    return student


def param_count(model: Model) -> int:
    """Total parameter element count (shared embeddings counted once)."""
    return sum(t.size for t in model.params.values())


# ---------------------------------------------------------------------------
# checkpoint format
#
# byte layout (all integers little-endian):
#   [0:8)    magic b"SHMT0001"
#   [8:12)   uint32 N, manifest byte length
#   [12:12+N) UTF-8 JSON manifest:
#              {"config": {...ModelConfig fields...},
#               "tensors": [{"name": str, "shape": [int...], "offset": int}]}
#            offsets are byte offsets into the data section, tensors stored
#            row-major as raw float64 little-endian
#   [12+N:)  data section


def save_model(model: Model, path) -> None:
    names = sorted(model.params)
    tensors = []
    offset = 0
    blobs = []
    for name in names:
        arr = model.params[name].data
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blobs.append(blob)
        offset += len(blob)
    manifest = json.dumps(
        {"config": asdict(model.config), "tensors": tensors}, sort_keys=True
    ).encode("utf-8")
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(manifest).to_bytes(4, "little"))
        fh.write(manifest)
        for blob in blobs:
            fh.write(blob)
    tmp.replace(path)


def load_model(path) -> Model:
    """Read a checkpoint; a truncated or malformed file raises ContractError."""
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ContractError(f"{path}: not a model checkpoint (bad magic)")
    if len(raw) < 12:
        raise ContractError(f"{path}: truncated checkpoint ({len(raw)} bytes, header needs 12)")
    n = int.from_bytes(raw[8:12], "little")
    if 12 + n > len(raw):
        raise ContractError(
            f"{path}: truncated checkpoint (manifest of {n} bytes, {len(raw) - 12} left)"
        )
    try:
        manifest = json.loads(raw[12 : 12 + n].decode("utf-8"))
        config = ModelConfig(**manifest["config"])
        entries = [(e["name"], tuple(int(d) for d in e["shape"]), int(e["offset"]))
                   for e in manifest["tensors"]]
    except (KeyError, TypeError, ValueError) as err:  # ValueError covers JSON and UTF-8 errors
        raise ContractError(f"{path}: malformed checkpoint manifest ({err})") from err
    data = raw[12 + n :]
    params = {}
    for name, shape, start in entries:
        count = math.prod(shape)
        if start < 0 or min(shape, default=0) < 0 or start + 8 * count > len(data):
            raise ContractError(
                f"{path}: tensor {name!r} (shape {list(shape)}, offset {start}) lies outside "
                f"the {len(data)}-byte data section; the checkpoint is truncated or corrupt"
            )
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=start).reshape(shape)
        params[name] = Tensor(arr.astype(np.float64), requires_grad=True)
    return Model(config, params)
