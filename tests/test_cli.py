import json
from pathlib import Path

import numpy as np
import pytest

from shallowmt import cli
from shallowmt.cli import main, parse_kv_config, resolve_configs
from shallowmt.errors import ConfigError
from shallowmt.model import load_model

SPEC = "aa\tbb\treverse\t120\naa\tcc\tcaesar1\t120\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.tsv"
    spec.write_text(SPEC)
    corpus = root / "corpus"
    assert main(["synth", "--spec", str(spec), "--out", str(corpus), "--seed", "5"]) == 0
    teacher = root / "teacher.ckpt"
    rc = main([
        "train-teacher", "--data", str(corpus), "--out", str(teacher),
        "--steps", "30", "--seed", "1",
    ])
    assert rc == 0
    return {"root": root, "spec": spec, "corpus": corpus, "teacher": teacher}


class TestSynth:
    def test_outputs_and_split_sizes(self, workspace):
        corpus = workspace["corpus"]
        for tag in ("aa-bb", "aa-cc"):
            lines = (corpus / f"{tag}.all.tsv").read_text().splitlines()
            assert len(lines) == 120
            split_total = sum(
                len((corpus / f"{tag}.{s}.tsv").read_text().splitlines())
                for s in ("train", "dev", "test")
            )
            assert split_total == 120
        assert (corpus / "corpus.manifest.json").exists()

    def test_deterministic_bytes(self, workspace, tmp_path):
        out2 = tmp_path / "corpus2"
        assert main(["synth", "--spec", str(workspace["spec"]), "--out", str(out2),
                     "--seed", "5"]) == 0
        for tag in ("aa-bb.all.tsv", "aa-bb.train.tsv", "aa-cc.test.tsv"):
            assert (out2 / tag).read_bytes() == (workspace["corpus"] / tag).read_bytes()

    def test_split_disjointness(self, workspace):
        seen = {}
        for split in ("train", "dev", "test"):
            for line in (workspace["corpus"] / f"aa-bb.{split}.tsv").read_text().splitlines():
                src = line.split("\t")[2]
                assert seen.setdefault(src, split) == split

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("aa\tbb\treverse\n")  # missing size column
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "expected" in capsys.readouterr().err

    def test_unknown_transformation_exits_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("aa\tbb\trot13\t10\n")
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 2


class TestConfigResolution:
    def test_kv_parser(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nlr = 0.002\nphase1_steps = 7\nshare_embeddings = true\n")
        parsed = parse_kv_config(cfg)
        assert parsed == {"lr": 0.002, "phase1_steps": 7, "share_embeddings": True}

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning_rate = 1\n")
        with pytest.raises(ConfigError) as exc:
            parse_kv_config(cfg)
        assert "learning_rate" in str(exc.value)

    def test_unknown_key_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not_a_key = 3\n")
        rc = main(["train-teacher", "--data", str(workspace["corpus"]),
                   "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg)])
        assert rc == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_missing_required_arg_exits_2(self, capsys):
        assert main(["train-teacher", "--out", "x.ckpt"]) == 2
        assert "--data" in capsys.readouterr().err

    def test_paper_profile_values(self):
        cfg, dcfg, mcfg, student = resolve_configs("paper", {}, {}, vocab_size=64)
        assert cfg.lr == 1e-4
        assert cfg.warmup_steps == 40_000
        assert cfg.warmup_init_lr == 1e-7
        assert (cfg.adam_beta1, cfg.adam_beta2) == (0.9, 0.98)
        assert cfg.adam_eps == 1e-6
        assert cfg.clip_norm == 1.0
        assert cfg.label_smoothing == 0.1
        assert cfg.batch_tokens == 1000
        assert cfg.accumulation_steps == 9
        assert (cfg.phase1_steps, cfg.phase2_steps) == (150_000, 756_000)
        assert (mcfg.encoder_layers, mcfg.decoder_layers) == (12, 3)
        assert (mcfg.emb_dim, mcfg.ffn_dim, mcfg.num_heads) == (1024, 4096, 16)
        assert mcfg.dropout == 0.1 and mcfg.attention_dropout == 0.1
        assert mcfg.share_embeddings is True
        assert student["student_decoder_layers"] == 3

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("lr = 0.5\n")
        cfg, _, _, _ = resolve_configs("toy", parse_kv_config(cfg_file), {"lr": 0.25}, 8)
        assert cfg.lr == 0.25

    def test_paper_profile_manifest_via_cli(self, workspace, tmp_path):
        small = tmp_path / "small.cfg"
        small.write_text(
            "encoder_layers = 2\ndecoder_layers = 1\nemb_dim = 16\nffn_dim = 32\n"
            "num_heads = 2\nmax_seq_len = 32\ndropout = 0.0\nattention_dropout = 0.0\n"
        )
        out = tmp_path / "paper.ckpt"
        rc = main(["train-teacher", "--data", str(workspace["corpus"]), "--out", str(out),
                   "--profile", "paper", "--config", str(small), "--steps", "0"])
        assert rc == 0
        manifest = json.loads((tmp_path / "paper.ckpt.manifest.json").read_text())
        train = manifest["resolved"]["train"]
        assert train["lr"] == 1e-4 and train["warmup_steps"] == 40_000
        assert train["accumulation_steps"] == 9
        assert train["phase1_steps"] == 150_000 and train["phase2_steps"] == 756_000


class TestPipeline:
    def test_teacher_artifacts(self, workspace):
        assert workspace["teacher"].exists()
        assert Path(str(workspace["teacher"]) + ".manifest.json").exists()
        assert Path(str(workspace["teacher"]) + ".log").exists()

    def test_evaluate_deterministic(self, workspace, tmp_path):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            rc = main(["evaluate", "--checkpoint", str(workspace["teacher"]),
                       "--data", str(workspace["corpus"]), "--out", str(out),
                       "--beam", "1"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_distill_manifest_rerun_byte_identical(self, workspace, tmp_path):
        first = tmp_path / "s1.ckpt"
        rc = main(["distill", "--teacher", str(workspace["teacher"]),
                   "--data", str(workspace["corpus"]), "--out", str(first),
                   "--phase1-steps", "5", "--phase2-steps", "8", "--seed", "2"])
        assert rc == 0
        manifest_path = str(first) + ".manifest.json"
        second = tmp_path / "s2.ckpt"
        record = json.loads(Path(manifest_path).read_text())
        record["args"]["out"] = str(second)
        replay = tmp_path / "replay.manifest.json"
        replay.write_text(json.dumps(record))
        rc = main(["distill", "--manifest", str(replay)])
        assert rc == 0
        assert first.read_bytes() == second.read_bytes()
        student = load_model(first)
        assert student.config.decoder_layers == 1  # toy profile default

    def test_finetune_runs(self, workspace, tmp_path):
        out = tmp_path / "ft.ckpt"
        rc = main(["finetune", "--checkpoint", str(workspace["teacher"]),
                   "--data", str(workspace["corpus"]), "--direction", "aa-bb",
                   "--steps", "3", "--out", str(out)])
        assert rc == 0 and out.exists()

    def test_finetune_unknown_direction(self, workspace, tmp_path):
        rc = main(["finetune", "--checkpoint", str(workspace["teacher"]),
                   "--data", str(workspace["corpus"]), "--direction", "xx-yy",
                   "--steps", "3", "--out", str(tmp_path / "f.ckpt")])
        assert rc == 2

    def test_bench_single_checkpoint_ratio_one(self, workspace, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        rc = main(["bench", "--checkpoints", f"T={workspace['teacher']}",
                   "--data", str(workspace["corpus"]), "--sentences", "2",
                   "--beam", "1", "--reps", "3", "--warmup", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model\tsec_per_sentence\tspeedup"
        name, _sec, ratio = lines[1].split("\t")
        assert name == "T" and float(ratio) == 1.0

    def test_report_matches_hand_computation(self, workspace, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("aa-bb\t4.0\naa-cc\t6.0\nbb-cc\t10.0\n")
        resources = tmp_path / "resources.tsv"
        resources.write_text("aa\t50000\nbb\t600000\ncc\t700000\n")
        rc = main(["report", "--scores", str(scores), "--resources", str(resources)])
        assert rc == 0
        machine = capsys.readouterr().out.strip().splitlines()[-1]
        parts = dict(kv.split("=") for kv in machine.split())
        # aa is very-low, bb/cc low: VL2L holds 4 and 6, L2L holds 10
        assert float(parts["VL2L"]) == pytest.approx(5.0)
        assert float(parts["L2L"]) == pytest.approx(10.0)
        assert float(parts["AVG"]) == pytest.approx((4.0 + 6.0 + 10.0) / 3)

    def test_evaluate_reports_max_len_hits(self, workspace, tmp_path, capsys):
        rc = main(["evaluate", "--checkpoint", str(workspace["teacher"]),
                   "--data", str(workspace["corpus"]), "--out", str(tmp_path / "s.tsv"),
                   "--beam", "1", "--max-len", "1"])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        sizes = {tag: len((workspace["corpus"] / f"{tag}.test.tsv").read_text().splitlines())
                 for tag in ("aa-bb", "aa-cc")}
        # one step never completes a target of three or more tokens
        assert err == [f"{tag}: {n}/{n} hit max_len" for tag, n in sizes.items()]

    @pytest.mark.parametrize("keep", [0.5, 10])
    def test_truncated_checkpoint_exits_2(self, workspace, tmp_path, capsys, keep):
        raw = workspace["teacher"].read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[: int(len(raw) * keep) if keep < 1 else keep])
        rc = main(["evaluate", "--checkpoint", str(cut),
                   "--data", str(workspace["corpus"]), "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--data", str(workspace["corpus"]), "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
