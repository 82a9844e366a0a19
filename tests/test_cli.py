"""Command-line surface: config handling, exit codes, artifacts, output
formats, and the flag/subcommand inventory."""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from hwgnn import cli, graphdata, learnpipe, synth
from hwgnn.cli import build_parser, main

AND_MODULE = """\
module top_and(
  input a,
  input b,
  output c
);
  assign c = a & b;
endmodule
"""

NOT_MODULE = """\
module top_not(
  input x,
  output y
);
  assign y = ~x;
endmodule
"""

TWO_MODULES = """\
module m1(input a, output y);
  assign y = a;
endmodule

module m2(input b, output z);
  assign z = b;
endmodule
"""

BROKEN = "module oops(\n"


def make_design(root, name, text=AND_MODULE):
    d = root / name
    d.mkdir(parents=True)
    (d / f"{name}.v").write_text(text, encoding="utf-8")
    return d


def write_config(path, **keys):
    path.write_text(yaml.safe_dump(keys), encoding="utf-8")
    return str(path)


def table_row(out: str, design: str) -> list[str]:
    for line in out.splitlines():
        if line.startswith(design):
            return line.split()
    raise AssertionError(f"no summary row for {design}:\n{out}")


def test_cli_import_leaves_the_corpus_generator_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, hwgnn.cli; print('hwgnn.synth' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["graph", "--config", str(tmp_path / "nope.yml"), "x"]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_config_must_be_a_mapping(self, tmp_path, capsys):
        cfg = tmp_path / "c.yml"
        cfg.write_text("- just\n- a list\n", encoding="utf-8")
        assert main(["graph", "--config", str(cfg), "x"]) == 2
        assert "must be a mapping" in capsys.readouterr().err

    def test_unknown_top_level_key_is_fatal(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", corpuss="typo")
        assert main(["graph", "--config", cfg, "x"]) == 2
        assert "corpuss" in capsys.readouterr().err

    def test_unknown_train_key_is_fatal(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", train={"learning_rate": 0.1})
        assert main(["graph", "--config", cfg, "x"]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_empty_config_file_is_fine(self, tmp_path):
        (tmp_path / "c.yml").write_text("", encoding="utf-8")
        d = make_design(tmp_path, "d1")
        assert main(["graph", "--config", str(tmp_path / "c.yml"),
                     "--out", str(tmp_path / "o"), str(d)]) == 0

    def test_bad_kind_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", kind="cfg")
        d = make_design(tmp_path, "d1")
        assert main(["graph", "--config", cfg, str(d)]) == 2
        assert "kind must be" in capsys.readouterr().err

    def test_abstraction_is_an_unknown_key(self, tmp_path, capsys):
        # both abstraction levels share one front end, so no setting picks one
        cfg = write_config(tmp_path / "c.yml", abstraction="rtl")
        d = make_design(tmp_path, "d1")
        assert main(["graph", "--config", cfg, str(d)]) == 2
        assert "unknown config keys: abstraction" in capsys.readouterr().err

    def test_bad_train_values_are_config_errors(self, tmp_path, capsys, ht_corpus_dir,
                                                monkeypatch):
        # each bad value must be caught before a single design is read; every
        # command reads designs through this one call
        monkeypatch.setattr(cli, "load_design_dir", lambda *a: pytest.fail("design was read"))
        designs = sorted(p for p in ht_corpus_dir.iterdir() if p.is_dir())
        manifest = json.loads((ht_corpus_dir / "labels.json").read_text(encoding="utf-8"))
        manifest[designs[0].name]["label"] = "Trojn"
        typo = tmp_path / "typo.json"
        typo.write_text(json.dumps(manifest), encoding="utf-8")
        garbled, undecodable = tmp_path / "garbled.json", tmp_path / "undecodable.json"
        garbled.write_text("{not json", encoding="utf-8")
        undecodable.write_bytes(b'{"a": "\xff"}')
        cases = [
            ("train-ht", {"train": {"lr": -1.0}}, "bad train config"),
            ("train-ht", {"seed": "abc"}, "seed must be"),
            ("train-ht", {"ratio": "abc"}, "ratio must be"),
            ("graph", {"jobs": 0}, "jobs must be"),
            ("train-ht", {"train": {"optimizer": "foo"}}, "optimizer"),
            ("train-ht", {"train": {"readout": "max"}}, "readout"),
            ("train-ht", {"train": {"pooling_ratio": 2}}, "pooling_ratio"),
            ("train-ht", {"train": {"epochs": 1.5}}, "epochs"),
            ("train-ht", {"train": {"conv_dims": 5}}, "conv_dims"),
            ("train-ht", {"train": {"activation": "foo"}}, "activation"),
            ("train-ht", {"ratio": 1.5}, "ratio must be in (0, 1)"),
            ("train-ip", {"ratio": 1.5}, "ratio must be in (0, 1)"),
            ("train-ht", {"leave_out": "cpu"}, "no item belongs to circuit 'cpu'"),
            ("train-ht", {"flags": ["--leave-out", "cpu"]}, "no item belongs to circuit 'cpu'"),
            ("infer-ip", {"train": {"delta": 2.0}, "flags": [str(p) for p in designs[:2]]},
             "bad train config"),
            ("train-ht", {"train": {"seed": 7}}, "unknown train keys: seed"),
            ("train-ht", {"corpus": 5}, "corpus must be"),
            ("train-ht", {"labels": 5}, "labels must be"),
            ("embed", {"checkpoint": ["a"]}, "checkpoint must be"),
            ("train-ht", {"top": 5}, "top must be"),
            ("train-ht", {"train": {"lr": math.nan}}, "lr must be"),
            ("train-ht", {"train": {"lr": math.inf}}, "lr must be"),
            ("train-ht", {"train": {"lr": True}}, "lr must be"),
            ("train-ht", {"labels": str(typo)}, f"{designs[0].name!r}: classifier label"),
            ("train-ht", {"labels": str(garbled)}, f"{garbled}: unreadable manifest"),
            ("train-ht", {"labels": str(undecodable)}, f"{undecodable}: unreadable manifest"),
        ]
        for command, keys, message in cases:
            flags = keys.pop("flags", [])
            cfg = write_config(tmp_path / "c.yml", **{"corpus": str(ht_corpus_dir), **keys})
            argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), *flags]
            assert main(argv) == 2, keys
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert message in err, err

    def test_out_or_cache_naming_a_file_exits_2(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep", encoding="utf-8")
        d = make_design(tmp_path, "d1")
        for argv in (["graph", "--out", str(afile), str(d)],
                     ["graph", "--out", str(afile / "sub"), str(d)],
                     ["embed", "--cache", str(afile), str(d)]):
            assert main(argv) == 2, argv
            assert "must name a directory, not a file" in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "keep"

    def test_help_documents_every_config_key(self):
        text = build_parser().format_help()
        for key in ("corpus", "labels", "kind", "top", "cache",
                    "out", "checkpoint", "seed", "ratio", "leave_out", "jobs",
                    "train"):
            assert f"{key}:" in text
        for key in ("epochs", "batch_size", "lr", "optimizer", "pooling_ratio",
                    "margin", "delta", "mini_test_interval", "readout",
                    "conv_dims", "activation", "mlp_hidden", "directed_messages"):
            assert f"{key}:" in text
        assert "seed:" not in text.split("  train:")[1]
        for default in ("(default 120)", "(default 0.01)", "(default [64, 64])"):
            assert default in text

    def test_every_subcommand_accepts_the_shared_flags(self):
        parser = build_parser()
        flags = ["--config", "c.yml", "--kind", "ast", "--top", "t",
                 "--seed", "3", "--cache", "cdir", "--out", "odir",
                 "--leave-out", "alu"]
        for argv in (
            ["graph", *flags, "dir1"],
            ["embed", *flags, "dir1"],
            ["train-ht", *flags],
            ["infer-ht", *flags, "dir1"],
            ["train-ip", *flags],
            ["infer-ip", *flags, "a", "b"],
        ):
            ns = parser.parse_args(argv)
            assert ns.command == argv[0]
            assert ns.kind == "ast"
            assert ns.seed == 3
            assert ns.leave_out == "alu"


class TestGraphCommand:
    def test_single_design_summary_and_json(self, tmp_path, capsys):
        d = make_design(tmp_path, "tiny")
        out = tmp_path / "out"
        assert main(["graph", "--out", str(out), str(d)]) == 0
        row = table_row(capsys.readouterr().out, "tiny")
        assert row[:3] == ["tiny", "4", "3"]
        doc = json.loads((out / "tiny.dfg.json").read_text())
        assert len(doc["nodes"]) == 4
        assert doc["kind"] == "DFG"

    def test_ast_kind_flag(self, tmp_path):
        d = make_design(tmp_path, "tiny")
        out = tmp_path / "out"
        assert main(["graph", "--kind", "ast", "--out", str(out), str(d)]) == 0
        doc = json.loads((out / "tiny.ast.json").read_text())
        assert doc["kind"] == "AST"
        assert len(doc["edges"]) == len(doc["nodes"]) - 1

    def test_no_inputs_anywhere_is_a_usage_error(self, capsys):
        assert main(["graph"]) == 2
        assert "no input design directories" in capsys.readouterr().err

    def test_mixed_corpus_keeps_good_output_and_fails(self, tmp_path, capsys):
        make_design(tmp_path / "corpus", "good")
        make_design(tmp_path / "corpus", "bad", BROKEN)
        cfg = write_config(tmp_path / "c.yml", corpus=str(tmp_path / "corpus"))
        out = tmp_path / "out"
        assert main(["graph", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (out / "good.dfg.json").is_file()
        assert not (out / "bad.dfg.json").exists()
        assert "FAILED" in captured.out
        assert "error: bad:" in captured.err

    def test_corpus_config_processes_every_design(self, tmp_path, capsys):
        for name in ("d1", "d2", "d3"):
            make_design(tmp_path / "corpus", name)
        cfg = write_config(tmp_path / "c.yml", corpus=str(tmp_path / "corpus"))
        out = tmp_path / "out"
        assert main(["graph", "--config", cfg, "--out", str(out)]) == 0
        for name in ("d1", "d2", "d3"):
            assert (out / f"{name}.dfg.json").is_file()

    def test_worker_pool_and_serial_agree(self, tmp_path):
        for name in ("d1", "d2", "d3"):
            make_design(tmp_path / "corpus", name)
        serial_cfg = write_config(tmp_path / "s.yml", corpus=str(tmp_path / "corpus"), jobs=1)
        pool_cfg = write_config(tmp_path / "p.yml", corpus=str(tmp_path / "corpus"), jobs=2)
        assert main(["graph", "--config", serial_cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["graph", "--config", pool_cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("d1", "d2", "d3"):
            a = (tmp_path / "a" / f"{name}.dfg.json").read_bytes()
            b = (tmp_path / "b" / f"{name}.dfg.json").read_bytes()
            assert a == b

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_design_names_are_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                       jobs):
        # two graphs named d1 would be written to one d1.dfg.json
        a, b = make_design(tmp_path / "a", "d1"), make_design(tmp_path / "b", "d1", NOT_MODULE)
        make_design(tmp_path / "a", "d2")
        monkeypatch.setattr(cli, "load_design_dir", lambda *_: pytest.fail("design was read"))
        cfg = write_config(tmp_path / "c.yml", jobs=jobs)
        out = tmp_path / "out"
        argv = ["graph", "--config", cfg, "--out", str(out), str(a), str(tmp_path / "a" / "d2"),
                str(b)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate design names: d1\n"
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        d = make_design(tmp_path, "tiny")
        out = tmp_path / "out"
        assert main(["graph", "--out", str(out), str(d)]) == 0
        first = (out / "tiny.dfg.json").read_bytes()
        assert main(["graph", "--out", str(out), str(d)]) == 0
        assert (out / "tiny.dfg.json").read_bytes() == first

    def test_top_flag_resolves_ambiguous_designs(self, tmp_path, capsys):
        d = make_design(tmp_path, "multi", TWO_MODULES)
        out = tmp_path / "out"
        assert main(["graph", "--out", str(out), str(d)]) == 1
        assert "top candidates" in capsys.readouterr().err
        assert main(["graph", "--top", "m2", "--out", str(out), str(d)]) == 0
        doc = json.loads((out / "multi.dfg.json").read_text())
        names = {n["name"] for n in doc["nodes"]}
        assert {"b", "z"} <= names


@pytest.fixture(scope="module")
def ht_artifacts(ht_corpus_dir, tmp_path_factory):
    """One short Trojan-classifier training run shared by the read-only tests."""
    out = tmp_path_factory.mktemp("ht_out")
    cfg = write_config(
        out / "train.yml",
        corpus=str(ht_corpus_dir),
        train={"epochs": 2, "conv_dims": [8], "mlp_hidden": [4],
               "mini_test_interval": 5},
    )
    assert main(["train-ht", "--config", cfg, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def ip_artifacts(ip_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ip_out")
    cfg = write_config(
        out / "train.yml",
        corpus=str(ip_corpus_dir),
        train={"epochs": 2, "conv_dims": [8], "mini_test_interval": 5},
    )
    assert main(["train-ip", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestTrainHt:
    def test_artifacts_and_report(self, ht_artifacts):
        assert (ht_artifacts / "model.ckpt").is_file()
        assert (ht_artifacts / "vocab.txt").is_file()
        report = json.loads((ht_artifacts / "report.json").read_text())
        assert set(report) == {"counts", "metrics", "per_item", "training"}
        assert sum(report["counts"].values()) == len(report["per_item"]) == 2
        training = report["training"]
        assert set(training) == {"best_step", "steps", "stop", "history"}
        assert training["stop"] in ("ceiling", "epochs")
        assert any(h["step"] == training["best_step"] for h in training["history"])
        assert training["history"][-1]["step"] == training["steps"]
        for item in report["per_item"]:
            assert item["prediction"] in ("Trojan", "Non_Trojan")

    def test_checkpoint_joins_up_with_saved_vocab(self, ht_artifacts):
        vocab = graphdata.load_vocab(ht_artifacts / "vocab.txt")
        ckpt = learnpipe.load_checkpoint(
            ht_artifacts / "model.ckpt", vocab_fingerprint=vocab.fingerprint
        )
        assert ckpt.model.arch["in_dim"] == len(vocab)
        assert math.isfinite(ckpt.best_metric)

    def test_failing_design_is_named(self, ht_corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(ht_corpus_dir, corpus)
        bad = next(p for p in sorted(corpus.iterdir()) if p.is_dir())
        for src in bad.glob("*.v"):
            src.write_text(BROKEN, encoding="utf-8")
        cfg = write_config(tmp_path / "c.yml", corpus=str(corpus))
        assert main(["train-ht", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad.name}: VerilogSyntaxError: "), err
        assert err.count("\n") == 1

    def test_training_is_idempotent(self, ht_corpus_dir, tmp_path):
        cfg = write_config(tmp_path / "c.yml", corpus=str(ht_corpus_dir),
                           train={"epochs": 1, "conv_dims": [4], "mlp_hidden": [4]})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train-ht", "--config", cfg, "--out", str(a)]) == 0
        assert main(["train-ht", "--config", cfg, "--out", str(b)]) == 0
        for artifact in ("model.ckpt", "vocab.txt", "report.json"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes()

    def test_missing_manifest(self, tmp_path, capsys):
        make_design(tmp_path / "corpus", "d1")
        cfg = write_config(tmp_path / "c.yml", corpus=str(tmp_path / "corpus"))
        assert main(["train-ht", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "label manifest not found" in capsys.readouterr().err

    def test_manifest_corpus_mismatch_is_listed(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        synth.ht_corpus(root, n_clean=2, n_trojan=2, seed=1)
        (root / "extra_design").mkdir()
        manifest = json.loads((root / "labels.json").read_text())
        gone = sorted(manifest)[0]
        shutil.rmtree(root / gone)
        cfg = write_config(tmp_path / "c.yml", corpus=str(root))
        assert main(["train-ht", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "extra_design" in err
        assert gone in err

    def test_leave_out_holds_out_exactly_that_circuit(self, ht_corpus_dir, tmp_path):
        cfg = write_config(tmp_path / "c.yml", corpus=str(ht_corpus_dir),
                           train={"epochs": 1, "conv_dims": [4], "mlp_hidden": [4]})
        out = tmp_path / "o"
        assert main(["train-ht", "--config", cfg, "--leave-out", "alu",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        held_out = sorted(item["graph_id"] for item in report["per_item"])
        assert held_out == ["clean_alu_00", "troj_alu_06"]

    def test_leave_out_unknown_circuit(self, ht_corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", corpus=str(ht_corpus_dir),
                           train={"epochs": 1})
        assert main(["train-ht", "--config", cfg, "--leave-out", "cpu",
                     "--out", str(tmp_path / "o")]) == 2
        assert "no item belongs to circuit 'cpu'" in capsys.readouterr().err

    def test_leave_out_needs_circuit_fields(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        synth.ht_corpus(root, n_clean=2, n_trojan=2, seed=1)
        manifest = json.loads((root / "labels.json").read_text())
        bare = {name: entry["label"] for name, entry in manifest.items()}
        (root / "labels.json").write_text(json.dumps(bare), encoding="utf-8")
        cfg = write_config(tmp_path / "c.yml", corpus=str(root), train={"epochs": 1})
        assert main(["train-ht", "--config", cfg, "--leave-out", "alu",
                     "--out", str(tmp_path / "o")]) == 2
        assert "'circuit' field" in capsys.readouterr().err

    def test_bare_string_manifest_labels_work_for_random_splits(self, tmp_path):
        root = tmp_path / "corpus"
        synth.ht_corpus(root, n_clean=2, n_trojan=2, seed=1)
        manifest = json.loads((root / "labels.json").read_text())
        bare = {name: entry["label"] for name, entry in manifest.items()}
        (root / "labels.json").write_text(json.dumps(bare), encoding="utf-8")
        cfg = write_config(tmp_path / "c.yml", corpus=str(root), ratio=0.25,
                           train={"epochs": 1, "conv_dims": [4], "mlp_hidden": [4]})
        assert main(["train-ht", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_design_file_that_is_not_utf8_fails_with_exit_1(self, ht_corpus_dir, tmp_path,
                                                             capsys):
        root = tmp_path / "corpus"
        shutil.copytree(ht_corpus_dir, root)
        bad = sorted(root.glob("*/*.v"))[0]
        bad.write_bytes(bad.read_bytes() + b"\xff")
        cfg = write_config(tmp_path / "c.yml", corpus=str(root))
        assert main(["train-ht", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "UndecodableFileError" in err and bad.name in err

    def test_cache_directory_is_populated_and_transparent(self, ht_corpus_dir, tmp_path):
        cache = tmp_path / "cache"
        cfg = write_config(tmp_path / "c.yml", corpus=str(ht_corpus_dir),
                           train={"epochs": 1, "conv_dims": [4], "mlp_hidden": [4]})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train-ht", "--config", cfg, "--cache", str(cache),
                     "--out", str(a)]) == 0
        assert any(cache.iterdir())
        # second run reads the cache and must land on the same artifacts
        assert main(["train-ht", "--config", cfg, "--cache", str(cache),
                     "--out", str(b)]) == 0
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()


class TestTrainIp:
    def test_artifacts_and_report(self, ip_artifacts, capsys):
        assert (ip_artifacts / "model.ckpt").is_file()
        assert (ip_artifacts / "vocab.txt").is_file()
        report = json.loads((ip_artifacts / "report.json").read_text())
        assert {"accuracy", "f1"} <= set(report["metrics"])
        for item in report["per_item"]:
            assert set(item) == {"first", "second", "label", "similarity", "prediction"}
            assert -1.0 <= item["similarity"] <= 1.0

    def test_manifest_without_category_is_rejected(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        make_design(root, "d1")
        make_design(root, "d2", NOT_MODULE)
        labels = {"d1": {"label": "x"}, "d2": {"label": "y"}}
        (root / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
        cfg = write_config(tmp_path / "c.yml", corpus=str(root), ratio=0.5,
                           train={"epochs": 1})
        assert main(["train-ip", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'category' field" in capsys.readouterr().err


class TestEmbed:
    def embed_config(self, path, artifacts, corpus):
        return write_config(path, checkpoint=str(artifacts / "model.ckpt"),
                            corpus=str(corpus))

    def test_corpus_embeddings_table(self, ht_artifacts, ht_corpus_dir, tmp_path, capsys):
        cfg = self.embed_config(tmp_path / "c.yml", ht_artifacts, ht_corpus_dir)
        out = tmp_path / "o"
        assert main(["embed", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "embeddings.tsv").read_text().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("graph_id\tlabel\te0")
        assert "wrote 10 embeddings" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, ht_artifacts, ht_corpus_dir, tmp_path):
        cfg = self.embed_config(tmp_path / "c.yml", ht_artifacts, ht_corpus_dir)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["embed", "--config", cfg, "--out", str(a)]) == 0
        assert main(["embed", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "embeddings.tsv").read_bytes() == (b / "embeddings.tsv").read_bytes()

    def test_single_design_gives_single_row(self, ht_artifacts, ht_corpus_dir, tmp_path):
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ht_artifacts / "model.ckpt"))
        design = next(p for p in sorted(ht_corpus_dir.iterdir()) if p.is_dir())
        out = tmp_path / "o"
        assert main(["embed", "--config", cfg, "--out", str(out), str(design)]) == 0
        lines = (out / "embeddings.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split("\t")[0] == design.name

    def test_checkpoint_without_neighboring_vocab(self, ht_artifacts, tmp_path, capsys):
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(ht_artifacts / "model.ckpt", lone / "model.ckpt")
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(lone / "model.ckpt"))
        d = make_design(tmp_path, "d1")
        assert main(["embed", "--config", cfg, "--out", str(tmp_path / "o"), str(d)]) == 2
        assert "vocabulary file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, error", [
        (lambda lines: b"".join(reversed(lines)), "CorruptFileError"),
        (lambda lines: b"".join(lines + lines[-1:]), "CorruptFileError"),
        (lambda lines: b"\xff\xfe" + b"".join(lines), "UndecodableFileError"),
    ], ids=["unsorted", "duplicate", "not-utf8"])
    def test_hand_edited_vocab_exits_1_naming_the_file(self, ht_artifacts, tmp_path, capsys,
                                                        damage, error):
        edited = tmp_path / "edited"
        edited.mkdir()
        shutil.copy(ht_artifacts / "model.ckpt", edited / "model.ckpt")
        lines = (ht_artifacts / "vocab.txt").read_bytes().splitlines(keepends=True)
        (edited / "vocab.txt").write_bytes(damage(lines))
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(edited / "model.ckpt"))
        d = make_design(tmp_path, "d1")
        assert main(["embed", "--config", cfg, "--out", str(tmp_path / "o"), str(d)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: {edited / 'vocab.txt'}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, error", [
        (BROKEN, "VerilogSyntaxError"),
        (None, "EmptySourceError"),
    ], ids=["broken", "empty"])
    def test_failing_design_is_named(self, ht_artifacts, tmp_path, capsys, text, error):
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ht_artifacts / "model.ckpt"))
        good = make_design(tmp_path, "good")
        bad = make_design(tmp_path, "bad", text) if text else tmp_path / "bad"
        bad.mkdir(exist_ok=True)
        argv = ["embed", "--config", cfg, "--out", str(tmp_path / "o"), str(good), str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad: {error}: "), err
        assert err.count("\n") == 1

    def test_unseen_node_label_is_a_clean_error(self, ht_artifacts, tmp_path, capsys):
        # the Trojan corpus never uses unary negation, so ~ is out of vocabulary
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ht_artifacts / "model.ckpt"))
        d = make_design(tmp_path, "novel", NOT_MODULE)
        assert main(["embed", "--config", cfg, "--out", str(tmp_path / "o"), str(d)]) == 1
        assert "missing from the vocabulary" in capsys.readouterr().err

    def test_kind_mismatch_against_checkpoint_fails_cleanly(
        self, ht_artifacts, ht_corpus_dir, tmp_path, capsys
    ):
        cfg = self.embed_config(tmp_path / "c.yml", ht_artifacts, ht_corpus_dir)
        rc = main(["embed", "--config", cfg, "--kind", "ast", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing from the vocabulary" in capsys.readouterr().err


class TestInferHt:
    def test_verdict_per_design(self, ht_artifacts, ht_corpus_dir, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.yml",
                           checkpoint=str(ht_artifacts / "model.ckpt"),
                           corpus=str(ht_corpus_dir))
        assert main(["infer-ht", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        for line in lines:
            name, verdict = line.split("\t")
            assert verdict in ("Trojan", "Non_Trojan")
            assert (ht_corpus_dir / name).is_dir()

    def test_partial_failure_keeps_going(self, ht_artifacts, ht_corpus_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ht_artifacts / "model.ckpt"))
        good = next(p for p in sorted(ht_corpus_dir.iterdir()) if p.is_dir())
        bad = make_design(tmp_path, "bad", BROKEN)
        assert main(["infer-ht", "--config", cfg, str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert good.name in captured.out
        assert "error: bad:" in captured.err

    def test_duplicate_design_names_are_a_config_error(self, ht_artifacts, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ht_artifacts / "model.ckpt"))
        a, b = make_design(tmp_path / "a", "d1"), make_design(tmp_path / "b", "d1")
        for command in ("embed", "infer-ht"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                         str(a), str(b)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: duplicate design names: d1\n"


class TestInferIp:
    def test_identical_designs_score_one_and_piracy(self, ip_artifacts, ip_corpus_dir,
                                                    tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ip_artifacts / "model.ckpt"))
        d = str(ip_corpus_dir / "ip_adder_v0")
        assert main(["infer-ip", "--config", cfg, d, d]) == 0
        line = capsys.readouterr().out.strip()
        fields = line.split("\t")
        assert fields[0] == fields[1] == "ip_adder_v0"
        assert fields[2] == "similarity=1.000000"
        assert fields[3] == "verdict=Piracy"

    def test_pair_output_format_and_consistency(self, ip_artifacts, ip_corpus_dir,
                                                tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ip_artifacts / "model.ckpt"))
        a = str(ip_corpus_dir / "ip_adder_v0")
        b = str(ip_corpus_dir / "ip_parity_v0")
        assert main(["infer-ip", "--config", cfg, a, b]) == 0
        fields = capsys.readouterr().out.strip().split("\t")
        sim = float(fields[2].removeprefix("similarity="))
        verdict = fields[3].removeprefix("verdict=")
        assert -1.0 <= sim <= 1.0
        assert verdict == ("Piracy" if sim > 0.5 else "Non_Piracy")

    def test_designs_of_one_name_compare(self, ip_artifacts, ip_corpus_dir, tmp_path,
                                         capsys):
        # unlike embed and infer-ht, infer-ip may compare two versions of one design
        cfg = write_config(tmp_path / "c.yml", checkpoint=str(ip_artifacts / "model.ckpt"))
        a, b = ip_corpus_dir / "ip_adder_v0", ip_corpus_dir / "ip_parity_v0"
        assert main(["infer-ip", "--config", cfg, str(a), str(b)]) == 0
        want = capsys.readouterr().out.split("\t", 2)[2]
        v1, v2 = tmp_path / "v1" / "alu", tmp_path / "v2" / "alu"
        shutil.copytree(a, v1)
        shutil.copytree(b, v2)
        assert main(["infer-ip", "--config", cfg, str(v1), str(v2)]) == 0
        assert capsys.readouterr().out == f"alu\talu\t{want}"


class TestCache:
    """The tensor cache is keyed on design sources: a warm run extracts
    nothing, gives the bytes a run without a cache gives, and any change to
    what extraction or encoding reads misses."""

    @pytest.fixture
    def extractions(self, monkeypatch):
        """Counts hw2graph calls, that is, cache misses that extract."""
        calls = []
        real = cli.hw2graph

        def counting(*args, **kwargs):
            calls.append(kwargs.get("design_name"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "hw2graph", counting)
        return calls

    @staticmethod
    def no_extraction(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a warm run extracted a design")

        monkeypatch.setattr(cli, "hw2graph", refuse)

    def config(self, tmp_path, artifacts, **keys):
        return write_config(tmp_path / "c.yml", checkpoint=str(artifacts / "model.ckpt"),
                            cache=str(tmp_path / "cache"), **keys)

    def test_warm_embed_runs_no_extraction(self, ht_artifacts, ht_corpus_dir, tmp_path,
                                           monkeypatch):
        cfg = self.config(tmp_path, ht_artifacts, corpus=str(ht_corpus_dir))
        plain = write_config(tmp_path / "plain.yml", checkpoint=str(ht_artifacts / "model.ckpt"),
                             corpus=str(ht_corpus_dir))
        runs = {"none": plain, "cold": cfg, "warm": cfg}
        for name, config in runs.items():
            if name == "warm":
                self.no_extraction(monkeypatch)
            assert main(["embed", "--config", config, "--out", str(tmp_path / name)]) == 0
        tsv = {name: (tmp_path / name / "embeddings.tsv").read_bytes() for name in runs}
        assert tsv["cold"] == tsv["none"] and tsv["warm"] == tsv["none"]
        assert len(list((tmp_path / "cache").iterdir())) == 10

    def test_warm_infer_ht_runs_no_extraction(self, ht_artifacts, ht_corpus_dir, tmp_path,
                                              capsys, monkeypatch):
        plain = write_config(tmp_path / "plain.yml", checkpoint=str(ht_artifacts / "model.ckpt"),
                             corpus=str(ht_corpus_dir))
        assert main(["infer-ht", "--config", plain]) == 0
        want = capsys.readouterr().out
        cfg = self.config(tmp_path, ht_artifacts, corpus=str(ht_corpus_dir))
        # embed warms the cache for infer-ht, as in a screening round
        assert main(["embed", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        self.no_extraction(monkeypatch)
        assert main(["infer-ht", "--config", cfg]) == 0
        assert capsys.readouterr().out == want

    def test_warm_infer_ip_runs_no_extraction(self, ip_artifacts, ip_corpus_dir, tmp_path,
                                              capsys, monkeypatch):
        pair = [str(ip_corpus_dir / "ip_adder_v0"), str(ip_corpus_dir / "ip_parity_v0")]
        cfg = self.config(tmp_path, ip_artifacts)
        assert main(["infer-ip", "--config", cfg, *pair]) == 0
        cold = capsys.readouterr().out
        self.no_extraction(monkeypatch)
        assert main(["infer-ip", "--config", cfg, *pair]) == 0
        assert capsys.readouterr().out == cold

    @pytest.mark.parametrize("change", ["edit-byte", "rename-dir", "kind", "top"])
    def test_changed_input_misses(self, ht_artifacts, tmp_path, extractions, change):
        d = make_design(tmp_path / "in", "d1")
        cfg = self.config(tmp_path, ht_artifacts)
        args = ["embed", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(args + [str(d)]) == 0
        assert main(args + [str(d)]) == 0
        assert len(extractions) == 1  # the second run hit
        if change == "edit-byte":
            src = d / "d1.v"
            src.write_text(src.read_text(encoding="utf-8").replace("a & b", "b & a"),
                           encoding="utf-8")
        elif change == "rename-dir":
            d = d.rename(d.with_name("d2"))
        flags = {"kind": ["--kind", "ast"], "top": ["--top", "top_and"]}.get(change, [])
        main(args + flags + [str(d)])  # an AST graph is outside the DFG vocabulary
        assert len(extractions) == 2

    def test_another_vocabulary_misses(self, ht_artifacts, ip_artifacts, tmp_path,
                                       extractions):
        assert ((ht_artifacts / "vocab.txt").read_bytes()
                != (ip_artifacts / "vocab.txt").read_bytes())
        d = make_design(tmp_path / "in", "d1")
        for artifacts in (ht_artifacts, ip_artifacts):
            cfg = self.config(tmp_path, artifacts)
            assert main(["embed", "--config", cfg, "--out", str(tmp_path / "o"), str(d)]) == 0
        assert len(extractions) == 2

    def test_undecodable_design_fails_even_with_a_warm_cache(self, ht_artifacts, tmp_path,
                                                             capsys):
        d = make_design(tmp_path / "in", "d1")
        cfg = self.config(tmp_path, ht_artifacts)
        args = ["embed", "--config", cfg, "--out", str(tmp_path / "o"), str(d)]
        assert main(args) == 0
        src = d / "d1.v"
        src.write_bytes(src.read_bytes() + b"\xff")
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "UndecodableFileError" in err and "d1.v" in err

    def test_corrupt_entry_fails_only_its_design_under_infer_ht(self, ht_artifacts,
                                                                ht_corpus_dir, tmp_path,
                                                                capsys):
        good, bad = sorted(p for p in ht_corpus_dir.iterdir() if p.is_dir())[:2]
        cfg = self.config(tmp_path, ht_artifacts)
        assert main(["infer-ht", "--config", cfg, str(good), str(bad)]) == 0
        want = capsys.readouterr().out.splitlines()
        vocab = graphdata.load_vocab(ht_artifacts / "vocab.txt")
        key = graphdata.cache_key(bad, cli.load_design_dir(bad), "DFG", None, vocab)
        entry = tmp_path / "cache" / f"{key}.gt"
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))
        assert main(["infer-ht", "--config", cfg, str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == want[:1]
        assert captured.err.startswith(
            f"error: {bad.name}: CacheCorruptError: {entry}: checksum mismatch")

    def run(self, tmp_path):
        return cli.Run(build_parser().parse_args(["embed", "--cache", str(tmp_path / "cache")]))

    def test_warm_encode_runs_no_extraction(self, tmp_path, monkeypatch):
        d = make_design(tmp_path / "in", "d1")
        run = self.run(tmp_path)
        _, vocab = cli._tensors(run, [d])
        [first], _ = cli._tensors(run, [d], vocab)
        self.no_extraction(monkeypatch)
        monkeypatch.setattr(graphdata, "encode", lambda *a, **k: pytest.fail("cache missed"))
        [second], _ = cli._tensors(run, [d], vocab)
        assert second.X.tobytes() == first.X.tobytes()
        assert second.A.tobytes() == first.A.tobytes()
        assert second.graph_id == first.graph_id == "d1"

    def test_hit_takes_the_callers_label(self, tmp_path, monkeypatch):
        d = make_design(tmp_path / "in", "d1")
        run = self.run(tmp_path)
        [stored], vocab = cli._tensors(run, [d], labels={"d1": "Trojan"})
        assert stored.label == "Trojan"
        monkeypatch.setattr(graphdata, "encode", lambda *a, **k: pytest.fail("cache missed"))
        assert cli._tensors(run, [d], labels={"d1": 1})[0][0].label == 1
        assert cli._tensors(run, [d], vocab, labels={"d1": 0})[0][0].label == 0
        assert cli._tensors(run, [d], vocab)[0][0].label is None


class TestDesignNamesFromResolvedPaths:
    """`.` and `x/..` name the directory they resolve to, as any other path."""

    @pytest.fixture
    def alu(self, ht_corpus_dir, tmp_path, monkeypatch):
        design = next(p for p in sorted(ht_corpus_dir.iterdir()) if p.is_dir())
        d = tmp_path / "alu"
        shutil.copytree(design, d)
        (d / "sub").mkdir()
        monkeypatch.chdir(d)
        return d

    @pytest.mark.parametrize("given", [".", "sub/.."])
    def test_graph(self, alu, given, capsys):
        out = alu.parent / "out"
        assert main(["graph", "--out", str(out), given]) == 0
        assert [p.name for p in out.iterdir()] == ["alu.dfg.json"]
        assert json.loads((out / "alu.dfg.json").read_text())["design"] == "alu"
        assert table_row(capsys.readouterr().out, "alu")

    @pytest.mark.parametrize("given", [".", "sub/.."])
    def test_embed_and_infer_ht(self, alu, given, ht_artifacts, capsys):
        cfg = write_config(alu.parent / "c.yml", checkpoint=str(ht_artifacts / "model.ckpt"),
                           out=str(alu.parent / "out"))
        assert main(["embed", "--config", cfg, given]) == 0
        rows = (alu.parent / "out" / "embeddings.tsv").read_text().splitlines()
        assert rows[1].split("\t")[0] == "alu"
        capsys.readouterr()
        assert main(["infer-ht", "--config", cfg, given]) == 0
        assert capsys.readouterr().out.split("\t")[0] == "alu"
