import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from zsih import cli, data, pipeline, retrieval
from zsih.data import load_split
from zsih.formats import MODALITY_CODES, pack_header


def run_cli(*args):
    try:
        return cli.main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code


TINY = ["--set", "M=8", "--set", "d_f=3", "--set", "gcn_hidden=5",
        "--set", "N_B=4", "--set", "max_iters=5", "--set", "t=0.5"]


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "sketches": tmp_path / "sketches.zsft",
        "images": tmp_path / "images.zsft",
        "semantics": tmp_path / "semantics.txt",
        "split": tmp_path / "split.txt",
        "checkpoint": tmp_path / "model.zsih",
        "metrics": tmp_path / "metrics.tsv",
        "dir": tmp_path,
    }
    code = run_cli(
        "synth", "--classes", 6, "--per-class", 4, "--locations", 2,
        "--channels", 8, "--semantic-dim", 4, "--noise", 0.1, "--seed", 3,
        "--sketches", paths["sketches"], "--images", paths["images"],
        "--semantics", paths["semantics"],
    )
    assert code == 0
    code = run_cli("split", "--features", paths["sketches"], "--n-unseen", 2,
                   "--seed", 3, "--out", paths["split"])
    assert code == 0
    return paths


def train_workspace(paths, extra=()):
    return run_cli(
        "train", "--sketches", paths["sketches"], "--images", paths["images"],
        "--semantics", paths["semantics"], "--split", paths["split"],
        "--checkpoint", paths["checkpoint"], "--metrics", paths["metrics"],
        *TINY, *extra,
    )


def ablate_workspace(paths, *extra):
    return run_cli(
        "ablate", "--sketches", paths["sketches"], "--images", paths["images"],
        "--semantics", paths["semantics"], "--split", paths["split"],
        "--out", paths["dir"] / "ablation.tsv", *TINY, *extra,
    )


def write_split(paths, seen, unseen):
    """Overwrite the split file with the given class ids."""
    paths["split"].write_text("".join([f"seen\t{c}\n" for c in seen]
                                      + [f"unseen\t{c}\n" for c in unseen]))


def keep_seen_semantics(paths):
    """Rewrite the semantics file with the seen classes' lines only."""
    seen = {str(c) for c in load_split(paths["split"]).seen}
    lines = paths["semantics"].read_text().splitlines(keepends=True)
    kept = [line for line in lines if line.split()[0] in seen]
    assert 0 < len(kept) < len(lines)
    paths["semantics"].write_text("".join(kept))


class TestSynth:
    def test_creates_all_files(self, workspace):
        for key in ("sketches", "images", "semantics"):
            assert workspace[key].exists()
            assert workspace[key].stat().st_size > 0

    def test_seeded_outputs_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            code = run_cli("synth", "--seed", 9, "--classes", 3, "--per-class", 2,
                           "--sketches", d / "s.zsft", "--images", d / "i.zsft",
                           "--semantics", d / "sem.txt")
            assert code == 0
            outs.append(tuple((d / n).read_bytes()
                              for n in ("s.zsft", "i.zsft", "sem.txt")))
        assert outs[0] == outs[1]

    def test_fewer_channels_than_semantic_dims(self, tmp_path):
        code = run_cli("synth", "--seed", 1, "--classes", 6, "--per-class", 5,
                       "--locations", 2, "--channels", 3, "--semantic-dim", 4,
                       "--noise", 0.3, "--sketches", tmp_path / "s",
                       "--images", tmp_path / "i", "--semantics", tmp_path / "m")
        assert code == 0

    def test_zero_classes_is_usage_error(self, tmp_path):
        code = run_cli("synth", "--seed", 1, "--classes", 0,
                       "--sketches", tmp_path / "s", "--images", tmp_path / "i",
                       "--semantics", tmp_path / "m")
        assert code == 2

    def test_missing_seed_is_usage_error(self, tmp_path):
        code = run_cli("synth", "--sketches", tmp_path / "s",
                       "--images", tmp_path / "i", "--semantics", tmp_path / "m")
        assert code == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code = run_cli("synth", "--seed", -1, "--sketches", tmp_path / "s",
                       "--images", tmp_path / "i", "--semantics", tmp_path / "m")
        assert code == 2
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_usage_error(self, tmp_path, capsys, noise):
        code = run_cli("synth", "--seed", 1, "--noise", noise, "--sketches", tmp_path / "s",
                       "--images", tmp_path / "i", "--semantics", tmp_path / "m")
        assert code == 2
        assert f"--noise must be finite and non-negative, got {noise}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestSplit:
    def test_negative_seed_is_usage_error(self, workspace, capsys):
        code = run_cli("split", "--features", workspace["sketches"], "--n-unseen", 2,
                       "--seed", -1, "--out", workspace["dir"] / "neg.txt")
        assert code == 2
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err


class TestTrain:
    def test_zero_iterations_writes_initial_checkpoint(self, workspace):
        code = train_workspace(workspace, extra=["--set", "max_iters=0"])
        assert code == 0
        ckpt = pipeline.load_checkpoint(workspace["checkpoint"])
        assert ckpt.iteration == 0
        assert workspace["metrics"].read_text() == ""

    def test_metrics_line_count_equals_iterations(self, workspace):
        assert train_workspace(workspace) == 0
        lines = workspace["metrics"].read_text().strip().splitlines()
        ckpt = pipeline.load_checkpoint(workspace["checkpoint"])
        assert len(lines) == ckpt.iteration == 5

    def test_fusion_override_changes_checkpoint(self, workspace):
        assert train_workspace(workspace) == 0
        default_bytes = workspace["checkpoint"].read_bytes()
        assert train_workspace(workspace, extra=["--set", "fusion_mode=concat"]) == 0
        assert workspace["checkpoint"].read_bytes() != default_bytes

    def test_overlapping_split_is_runtime_error(self, workspace, capsys):
        lines = workspace["split"].read_text().splitlines(keepends=True)
        unseen = min(load_split(workspace["split"]).unseen)
        lines.append(f"seen\t{unseen}\n")
        workspace["split"].write_text("".join(lines))
        code = train_workspace(workspace)
        assert code == 1
        assert (f"split.txt:{len(lines)}: class {unseen} is both seen and unseen"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("seen, unseen, absent", [
        ([0, 1, 2], [3, 99], [99]),
        ([0, 7, 1], [3, 4], [7]),
        ([0, 1, 2], [3, 12, 10], [10, 12]),
    ], ids=["unseen-id", "seen-id", "two-ids"])
    def test_split_class_without_data_is_named(self, workspace, capsys, seen, unseen, absent):
        write_split(workspace, seen, unseen)
        assert train_workspace(workspace) == 1
        err = capsys.readouterr().err
        assert f"split {workspace['split']} lists classes with no items" in err
        assert err.rstrip().endswith(f": {absent}")
        assert not workspace["checkpoint"].exists()

    def test_seen_class_with_one_modality_is_noted(self, workspace, capsys):
        store = data.load_features(workspace["images"])
        images = store.records["image"]
        data.save_features(data.FeatureStore({"image": images[images["class_id"] != 5]}),
                           workspace["images"], "image")
        write_split(workspace, [0, 1, 2, 5], [3, 4])
        assert train_workspace(workspace) == 0
        out, err = capsys.readouterr()
        assert err == ("note: seen classes [5] have items in only one of "
                       f"{workspace['sketches']} and {workspace['images']}; "
                       "training leaves them out\n")
        assert "over 3 seen classes" in out

    @pytest.mark.parametrize("verb", ["train", "ablate"])
    @pytest.mark.parametrize("seen, omitted", [([0, 1, 2, 5], None), ([0, 1], [2, 5])],
                             ids=["every-class", "two-omitted"])
    def test_classes_the_split_leaves_out_are_noted(self, workspace, capsys, verb,
                                                     seen, omitted):
        write_split(workspace, seen, [3, 4])
        run = train_workspace if verb == "train" else ablate_workspace
        assert run(workspace) == 0
        assert capsys.readouterr().err == ("" if omitted is None else (
            f"note: split {workspace['split']} does not list classes {omitted}, "
            "which have items in both feature files\n"))

    def test_semantics_of_seen_classes_suffice(self, workspace):
        assert train_workspace(workspace) == 0
        full = workspace["checkpoint"].read_bytes(), workspace["metrics"].read_bytes()
        keep_seen_semantics(workspace)
        assert train_workspace(workspace) == 0
        assert (workspace["checkpoint"].read_bytes(), workspace["metrics"].read_bytes()) == full

    def test_missing_seen_class_semantics_is_named(self, workspace, capsys):
        seen = min(load_split(workspace["split"]).seen)
        lines = workspace["semantics"].read_text().splitlines(keepends=True)
        workspace["semantics"].write_text(
            "".join(line for line in lines if line.split()[0] != str(seen)))
        assert train_workspace(workspace) == 1
        assert capsys.readouterr().err == (
            f"error: no semantic vector for classes (after synonym mapping): {seen}\n")

    @pytest.mark.parametrize("given, swapped, modality", [
        ("sketches", "images", "sketch"), ("images", "sketches", "image")])
    def test_features_of_the_wrong_modality_are_named(self, workspace, capsys,
                                                       given, swapped, modality):
        paths = dict(workspace, **{given: workspace[swapped]})
        assert train_workspace(paths) == 1
        assert capsys.readouterr().err == (
            f"error: feature file {workspace[swapped]} holds no {modality} items "
            "(modality mismatch)\n")

    def test_unknown_config_key_is_runtime_error(self, workspace, capsys):
        code = train_workspace(workspace, extra=["--set", "bogus=1"])
        assert code == 1
        assert "error: --set bogus: unknown key 'bogus'" in capsys.readouterr().err

    def test_non_finite_override_is_runtime_error(self, workspace, capsys):
        code = train_workspace(workspace, extra=["--set", "lr=nan"])
        assert code == 1
        assert "error: --set lr: lr must be finite" in capsys.readouterr().err

    def test_every_set_value_is_checked(self, workspace, capsys):
        # a later --set of the same key does not hide a bad earlier one
        code = train_workspace(workspace, extra=["--set", "M=abc", "--set", "M=8"])
        assert code == 1
        assert ("error: --set M: invalid literal for int() with base 10: 'abc'"
                in capsys.readouterr().err)
        assert not workspace["checkpoint"].exists()

    def test_config_bad_value_names_file_and_line(self, workspace, capsys):
        config = workspace["dir"] / "bad.cfg"
        config.write_text("M = 4\nbeta2 = 2\n")
        code = train_workspace(workspace, extra=["--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {config}:2: betas must lie in [0, 1)" in err
        assert not workspace["checkpoint"].exists()

    @pytest.mark.parametrize("pair, message", [
        ("M=abc", "error: --set M: invalid literal for int() with base 10: 'abc'"),
        ("lr=fast", "error: --set lr: could not convert string to float: 'fast'"),
        ("use_gcn=maybe", "error: --set use_gcn: config key 'use_gcn' expects a boolean"),
        ("M=0", "error: --set M: M must be at least 1"),
        ("beta1=1.5", "error: --set beta1: betas must lie in [0, 1)"),
    ], ids=["int", "float", "bool", "int-range", "float-range"])
    def test_bad_override_value_names_its_key(self, workspace, capsys, pair, message):
        code = train_workspace(workspace, extra=["--set", pair])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    def test_semantics_not_utf8_is_runtime_error(self, workspace, capsys):
        raw = workspace["semantics"].read_bytes()
        workspace["semantics"].write_bytes(raw + b"\xff 1.0\n")
        line = raw.count(b"\n") + 1
        code = train_workspace(workspace)
        err = capsys.readouterr().err
        assert code == 1
        assert f"semantics.txt:{line}: not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_semantics_is_runtime_error(self, workspace, capsys, value):
        lines = workspace["semantics"].read_text().splitlines(keepends=True)
        name, _, *rest = lines[0].split(" ")
        lines[0] = " ".join([name, value, *rest])
        workspace["semantics"].write_text("".join(lines))
        code = train_workspace(workspace)
        err = capsys.readouterr().err
        assert code == 1
        assert "semantics.txt:1: non-finite semantic component" in err

    @pytest.mark.parametrize("extra", [["--seed", "-1"], ["--set", "seed=-1"]],
                             ids=["flag", "override"])
    def test_negative_seed_is_named(self, workspace, capsys, extra):
        code = train_workspace(workspace, extra=extra)
        err = capsys.readouterr().err
        assert code == 1
        where = "--seed" if extra[0] == "--seed" else "--set seed"
        assert f"error: {where}: seed must be non-negative, got -1" in err
        assert not workspace["checkpoint"].exists()

    def test_config_not_utf8_is_runtime_error(self, workspace, capsys):
        config = workspace["dir"] / "bad.cfg"
        config.write_bytes(b"M = 4\n\xff = 2\n")
        code = train_workspace(workspace, extra=["--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.cfg:2: not UTF-8" in err
        assert "Traceback" not in err

    def test_config_bad_line_names_file_and_line(self, workspace, capsys):
        config = workspace["dir"] / "bad.cfg"
        config.write_text("M = 4\nbogus = 2\n")
        code = train_workspace(workspace, extra=["--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.cfg:2: unknown key 'bogus'" in err
        assert "Traceback" not in err

    def test_diverged_run_saves_last_good_state_and_exits_1(
            self, workspace, monkeypatch, capsys):
        calls = []
        real_step = pipeline.train_step

        def failing_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("non-finite loss")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train_step", failing_step)
        assert train_workspace(workspace) == 1
        assert "diverged after iteration 2" in capsys.readouterr().err
        assert pipeline.load_checkpoint(workspace["checkpoint"]).iteration == 2
        assert len(workspace["metrics"].read_text().splitlines()) == 2

    def test_resume_with_mis_shaped_moment_is_runtime_error(self, workspace, capsys):
        assert train_workspace(workspace) == 0
        ckpt = pipeline.load_checkpoint(workspace["checkpoint"])
        ckpt.opt_m["enc_im.w"] = ckpt.opt_m["enc_im.w"][:, :-1]
        pipeline.save_checkpoint(ckpt, workspace["checkpoint"])
        code = train_workspace(
            workspace,
            extra=["--set", "max_iters=8", "--resume", workspace["checkpoint"]])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "opt_m weight 'enc_im.w' has shape (3, 7)" in err
        assert "Traceback" not in err

    def test_resume_drops_metrics_past_the_checkpoint(self, workspace):
        """Train to 10, resume to 20, then resume from the 10-iteration
        checkpoint again: the log must equal one uninterrupted run's."""
        tiny_20 = ["--set", "max_iters=20"]
        assert train_workspace(workspace, extra=tiny_20) == 0
        straight = workspace["metrics"].read_bytes()
        ck10 = workspace["dir"] / "ck10.zsih"
        assert train_workspace(dict(workspace, checkpoint=ck10),
                               extra=["--set", "max_iters=10"]) == 0
        for _ in range(2):
            assert train_workspace(workspace, extra=[*tiny_20, "--resume", ck10]) == 0
            assert workspace["metrics"].read_bytes() == straight

    def test_resume_drops_a_row_cut_short(self, workspace):
        """A writer killed in the middle of a row leaves a last line with no
        newline; resuming must drop it, not glue the next row onto it."""
        tiny_20 = ["--set", "max_iters=20"]
        assert train_workspace(workspace, extra=tiny_20) == 0
        straight = workspace["metrics"].read_bytes()
        ck10 = workspace["dir"] / "ck10.zsih"
        assert train_workspace(dict(workspace, checkpoint=ck10),
                               extra=["--set", "max_iters=10"]) == 0
        workspace["metrics"].write_bytes(straight + b"2")
        assert train_workspace(workspace, extra=[*tiny_20, "--resume", ck10]) == 0
        assert workspace["metrics"].read_bytes() == straight

    @pytest.mark.parametrize("bad_line", [b"xx\t0.3\n", b"2\t0.3\xff\n"])
    def test_resume_with_malformed_metrics_line_names_it(self, workspace, capsys, bad_line):
        assert train_workspace(workspace) == 0
        workspace["metrics"].write_bytes(b"1\t0.5\n" + bad_line)
        code = train_workspace(
            workspace,
            extra=["--set", "max_iters=8", "--resume", workspace["checkpoint"]])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {workspace['metrics']}:2:" in err and "Traceback" not in err

    def test_resume_against_semantics_of_another_dimension_names_both(
            self, workspace, capsys):
        assert train_workspace(workspace) == 0
        logged = workspace["metrics"].read_bytes()
        data.write_semantic_file({c: np.ones(7) for c in range(6)}, workspace["semantics"])
        code = train_workspace(
            workspace, extra=["--set", "max_iters=8", "--resume", workspace["checkpoint"]])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: resume checkpoint takes 8 feature channels and 4 semantic dimensions, "
            "the training data has 8 and 7\n")
        assert workspace["metrics"].read_bytes() == logged

    def test_resume_against_features_of_another_width_names_both(
            self, workspace, capsys):
        assert train_workspace(workspace) == 0
        logged = workspace["metrics"].read_bytes()
        other = workspace["dir"] / "narrow"
        assert run_cli(
            "synth", "--classes", 6, "--per-class", 4, "--locations", 2,
            "--channels", 6, "--semantic-dim", 4, "--seed", 3,
            "--sketches", f"{other}.sk", "--images", f"{other}.im",
            "--semantics", f"{other}.txt") == 0
        paths = dict(workspace, sketches=f"{other}.sk", images=f"{other}.im")
        code = train_workspace(
            paths, extra=["--set", "max_iters=8", "--resume", workspace["checkpoint"]])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: resume checkpoint takes 8 feature channels and 4 semantic dimensions, "
            "the training data has 6 and 4\n")
        assert workspace["metrics"].read_bytes() == logged

    def test_resume_appends_metrics(self, workspace):
        assert train_workspace(workspace) == 0
        assert train_workspace(
            workspace,
            extra=["--set", "max_iters=8", "--resume", workspace["checkpoint"]],
        ) == 0
        lines = workspace["metrics"].read_text().strip().splitlines()
        assert [int(l.split("\t")[0]) for l in lines] == list(range(1, 9))


class TestEncode:
    def test_encode_requires_no_semantics(self, workspace):
        assert train_workspace(workspace) == 0
        out = workspace["dir"] / "codes.zscb"
        parser = cli._build_parser()
        args = parser.parse_args([
            "encode", "--checkpoint", str(workspace["checkpoint"]),
            "--features", str(workspace["sketches"]),
            "--modality", "sketch", "--out", str(out)])
        assert not hasattr(args, "semantics")
        assert run_cli("encode", "--checkpoint", workspace["checkpoint"],
                       "--features", workspace["sketches"],
                       "--modality", "sketch", "--out", out) == 0

    def test_deterministic_and_header_bits_match_config(self, workspace):
        assert train_workspace(workspace) == 0
        out1 = workspace["dir"] / "c1.zscb"
        out2 = workspace["dir"] / "c2.zscb"
        for out in (out1, out2):
            assert run_cli("encode", "--checkpoint", workspace["checkpoint"],
                           "--features", workspace["images"],
                           "--modality", "image", "--out", out) == 0
        assert out1.read_bytes() == out2.read_bytes()
        codes = retrieval.load_codes(out1)
        assert codes.n_bits == 8  # config M
        assert codes.modality == "image"

    def test_block_and_one_row_remainder_equal_one_pass_codes(self, workspace):
        assert train_workspace(workspace) == 0
        images = workspace["dir"] / "gallery.zsft"
        # 1,025 images: one encode block and one row more
        assert run_cli("synth", "--classes", 5, "--per-class", 205, "--locations", 2,
                       "--channels", 8, "--semantic-dim", 4, "--seed", 4,
                       "--sketches", workspace["dir"] / "unused.zsft",
                       "--images", images,
                       "--semantics", workspace["dir"] / "unused.txt") == 0
        out = workspace["dir"] / "gallery.zscb"
        assert run_cli("encode", "--checkpoint", workspace["checkpoint"],
                       "--features", images, "--modality", "image", "--out", out) == 0
        params = pipeline.load_checkpoint(workspace["checkpoint"]).build_params()
        records = data.load_features(images).records["image"]
        assert len(records) == 1025
        soft = oracles.one_shot_encode(records["feat"], params.attn_im, params.enc_im)
        expected = workspace["dir"] / "expected.zscb"
        retrieval.save_codes(retrieval.binarize(soft, records["class_id"], "image"),
                             expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_modality_mismatch_is_runtime_error(self, workspace, capsys):
        assert train_workspace(workspace) == 0
        code = run_cli("encode", "--checkpoint", workspace["checkpoint"],
                       "--features", workspace["sketches"],
                       "--modality", "image", "--out", workspace["dir"] / "x.zscb")
        assert code == 1
        assert "modality" in capsys.readouterr().err


    def _encode_edited(self, workspace, edit):
        assert train_workspace(workspace) == 0
        ckpt = pipeline.load_checkpoint(workspace["checkpoint"])
        edit(ckpt)
        pipeline.save_checkpoint(ckpt, workspace["checkpoint"])
        return run_cli("encode", "--checkpoint", workspace["checkpoint"],
                       "--features", workspace["sketches"],
                       "--modality", "sketch", "--out", workspace["dir"] / "x.zscb")

    def test_checkpoint_of_another_fusion_mode_is_runtime_error(self, workspace, capsys):
        def to_concat(ckpt):
            ckpt.config = replace(ckpt.config, fusion_mode="concat")

        assert self._encode_edited(workspace, to_concat) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "lacks weight 'fusion.w_proj'" in err
        assert "Traceback" not in err

    def test_mis_shaped_weight_is_runtime_error(self, workspace, capsys):
        def widen(ckpt):
            ckpt.params["enc_sk.w"] = np.zeros((3, 9))

        assert self._encode_edited(workspace, widen) == 1
        err = capsys.readouterr().err
        assert "params weight 'enc_sk.w' has shape (3, 9), expected (3, 8)" in err
        assert not (workspace["dir"] / "x.zscb").exists()

    def test_non_finite_weight_is_runtime_error(self, workspace, capsys):
        def poison(ckpt):
            ckpt.params["enc_im.w"][0, 0] = np.nan

        assert self._encode_edited(workspace, poison) == 1
        err = capsys.readouterr().err
        assert "params weight 'enc_im.w' holds nan" in err
        assert not (workspace["dir"] / "x.zscb").exists()


class TestNonFiniteFeatures:
    """A NaN or inf in one item's map is named with its file and item id
    before any work starts, whichever verb reads the file."""

    @staticmethod
    def _poison(path, modality, value):
        """Put ``value`` into one location of one item's map; returns the
        item's id."""
        records = data.load_features(path).records[modality].copy()
        records["feat"][5, 1, 3] = value
        data.save_features(data.FeatureStore({modality: records}), path, modality)
        return int(records["item_id"][5])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("verb", ["train", "ablate"])
    def test_training_verbs_name_the_item(self, workspace, capsys, verb, value):
        item = self._poison(workspace["images"], "image", value)
        run = train_workspace if verb == "train" else ablate_workspace
        assert run(workspace) == 1
        err = capsys.readouterr().err
        assert (f"error: feature file {workspace['images']} holds a non-finite "
                f"value in item {item}") in err
        assert not workspace["checkpoint"].exists()
        assert not (workspace["dir"] / "ablation.tsv").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_encode_names_the_item(self, workspace, capsys, value):
        assert train_workspace(workspace) == 0
        item = self._poison(workspace["sketches"], "sketch", value)
        out = workspace["dir"] / "codes.zscb"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("encode", "--checkpoint", workspace["checkpoint"],
                           "--features", workspace["sketches"],
                           "--modality", "sketch", "--out", out)
        assert code == 1
        assert (f"error: feature file {workspace['sketches']} holds a non-finite "
                f"value in item {item}") in capsys.readouterr().err
        assert not out.exists()


class TestRetrieveAndEval:
    def _encode_both(self, workspace):
        assert train_workspace(workspace) == 0
        q = workspace["dir"] / "q.zscb"
        g = workspace["dir"] / "g.zscb"
        assert run_cli("encode", "--checkpoint", workspace["checkpoint"],
                       "--features", workspace["sketches"],
                       "--modality", "sketch", "--out", q) == 0
        assert run_cli("encode", "--checkpoint", workspace["checkpoint"],
                       "--features", workspace["images"],
                       "--modality", "image", "--out", g) == 0
        return q, g

    def test_retrieve_writes_ranked_rows(self, workspace):
        q, g = self._encode_both(workspace)
        out = workspace["dir"] / "ranked.tsv"
        assert run_cli("retrieve", "--queries", q, "--gallery", g,
                       "--top", 3, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        n_queries = len(retrieval.load_codes(q))
        assert lines[0] == "query\trank\tgallery_index\tdistance"
        assert len(lines) == 1 + 3 * n_queries

    def test_retrieve_rows_equal_naive_ranking(self, tmp_path):
        rng = np.random.default_rng(5)
        q_bits = rng.integers(0, 2, size=(4, 13)).astype(np.uint8)
        g_bits = rng.integers(0, 2, size=(30, 13)).astype(np.uint8)
        g_bits[::6] = q_bits[0]  # ties at distance 0
        for name, bits, modality in (("q", q_bits, "sketch"), ("g", g_bits, "image")):
            retrieval.save_codes(retrieval.CodeMatrix(
                retrieval.pack_bits(bits), np.zeros(len(bits), dtype=np.uint32),
                13, modality), tmp_path / f"{name}.zscb")
        out = tmp_path / "ranked.tsv"
        assert run_cli("retrieve", "--queries", tmp_path / "q.zscb",
                       "--gallery", tmp_path / "g.zscb", "--top", 7, "--out", out) == 0
        expected = ["query\trank\tgallery_index\tdistance"]
        for qi, row in enumerate(q_bits):
            for rank, gi in enumerate(oracles.naive_rank(row, g_bits)[:7], start=1):
                expected.append(f"{qi}\t{rank}\t{gi}\t"
                                f"{oracles.naive_hamming(row, g_bits[gi])}")
        assert out.read_text().splitlines() == expected

    def test_eval_identity_gallery_gives_unit_map(self, workspace):
        # distinct codes with unique labels: perfect self-retrieval
        bits = np.unpackbits(np.arange(16, dtype=np.uint8)[:, None],
                             axis=1, bitorder="little", count=8)
        labels = np.arange(16, dtype=np.uint32)
        g2 = workspace["dir"] / "unique.zscb"
        q2 = workspace["dir"] / "unique_q.zscb"
        retrieval.save_codes(
            retrieval.CodeMatrix(retrieval.pack_bits(bits), labels, 8, "image"), g2)
        retrieval.save_codes(
            retrieval.CodeMatrix(retrieval.pack_bits(bits), labels, 8, "sketch"), q2)
        report = workspace["dir"] / "report.txt"
        assert run_cli("eval", "--queries", q2, "--gallery", g2,
                       "--k", 100, "--out", report) == 0
        text = report.read_text()
        assert "mAP@all\t1.0" in text
        assert "precision@100\t" in text

    def test_eval_emits_pr_dump(self, workspace):
        q, g = self._encode_both(workspace)
        report = workspace["dir"] / "report.txt"
        dump = workspace["dir"] / "pr.tsv"
        assert run_cli("eval", "--queries", q, "--gallery", g,
                       "--out", report, "--pr-dump", dump) == 0
        queries, gallery = retrieval.load_codes(q), retrieval.load_codes(g)
        ref = oracles.naive_evaluate(queries.bits(), queries.labels, gallery.bits(),
                                     gallery.labels, (1, 10, 100))
        assert dump.read_text().splitlines() == (
            ["kind\trecall\tprecision"]
            + [f"interp\t{r!r}\t{p!r}" for r, p in ref["pr_curve"]]
            + [f"raw\t{r!r}\t{p!r}" for r, p in ref["pr_raw"]])

    def test_eval_bit_width_mismatch_names_both(self, workspace, capsys):
        q, g = self._encode_both(workspace)
        other = retrieval.CodeMatrix(
            np.zeros((2, 2), dtype=np.uint8),
            np.array([0, 1], dtype=np.uint32), 16, "image")
        g16 = workspace["dir"] / "g16.zscb"
        retrieval.save_codes(other, g16)
        assert run_cli("eval", "--queries", q, "--gallery", g16,
                       "--out", workspace["dir"] / "r.txt") == 1
        err = capsys.readouterr().err
        assert "8" in err and "16" in err

    def test_zero_bit_codes_rejected(self, tmp_path, capsys):
        # headers that declare 0-bit codes: each record is a bare label
        labels = np.array([0, 1, 0], dtype="<u4").tobytes()
        paths = []
        for name, modality in (("q", "sketch"), ("g", "image")):
            paths.append(tmp_path / f"{name}.zscb")
            paths[-1].write_bytes(pack_header(
                retrieval.CODE_MAGIC, retrieval._CODE_HEADER, 3, 0,
                MODALITY_CODES[modality]) + labels + labels)
        for verb in ("eval", "retrieve"):
            out = tmp_path / f"{verb}.txt"
            assert run_cli(verb, "--queries", paths[0], "--gallery", paths[1],
                           "--out", out) == 1
            assert "at least 1 bit" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("verb", ["eval", "retrieve"])
    def test_empty_gallery_rejected(self, tmp_path, capsys, verb):
        q, g = tmp_path / "q.zscb", tmp_path / "g.zscb"
        retrieval.save_codes(retrieval.CodeMatrix(
            np.zeros((2, 1), dtype=np.uint8), [0, 1], 8, "sketch"), q)
        retrieval.save_codes(retrieval.CodeMatrix(
            np.zeros((0, 1), dtype=np.uint8), [], 8, "image"), g)
        out = tmp_path / "out.txt"
        assert run_cli(verb, "--queries", q, "--gallery", g, "--out", out) == 1
        assert "empty gallery" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("modality", ["sketch", "image"])
    @pytest.mark.parametrize("verb", ["eval", "retrieve"])
    def test_same_modality_rejected(self, tmp_path, capsys, verb, modality):
        codes = tmp_path / "codes.zscb"
        retrieval.save_codes(retrieval.CodeMatrix(
            np.zeros((2, 1), dtype=np.uint8), [0, 1], 8, modality), codes)
        out = tmp_path / "out.txt"
        assert run_cli(verb, "--queries", codes, "--gallery", codes, "--out", out) == 1
        err = capsys.readouterr().err
        assert (f"error: query codes are {modality} and gallery codes are {modality}"
                in err)
        assert not out.exists()


class TestAblate:
    def _sweep(self, workspace, *extra):
        """Run the sweep and return its header and its rows, split."""
        assert ablate_workspace(workspace, *extra) == 0
        lines = (workspace["dir"] / "ablation.tsv").read_text().strip().splitlines()
        return lines[0], [line.split("\t") for line in lines[1:]]

    def test_sweep_emits_one_map_per_setting(self, workspace):
        header, rows = self._sweep(workspace)
        assert header == "setting\tmap_all\tstop_reason"
        assert [row[0] for row in rows] == ["full", "fusion=concat", "fusion=mfb",
                                            "no_gcn", "t=1", "t=1e-6"]
        for _, map_all, stop_reason in rows:
            assert 0.0 <= float(map_all) <= 1.0
            assert stop_reason == "max_iters"

    def test_semantics_of_seen_classes_suffice(self, workspace):
        full = self._sweep(workspace)
        keep_seen_semantics(workspace)
        assert self._sweep(workspace) == full

    def test_one_scored_unseen_class_is_refused(self, workspace, capsys):
        # a one-class gallery makes every retrieval relevant: mAP 1.0 in every row
        write_split(workspace, [0, 1, 2], [3])
        assert ablate_workspace(workspace) == 1
        assert ("the ablation needs at least 2 unseen classes with data in both "
                f"modalities; split {workspace['split']} gives 1") in capsys.readouterr().err
        assert not (workspace["dir"] / "ablation.tsv").exists()

    def test_sweep_says_which_runs_diverged(self, workspace):
        # at lr=1e3 every setting's first update sends the next loss to inf;
        # the row keeps the mAP of the last good state and says so
        _, rows = self._sweep(workspace, "--set", "lr=1e3")
        assert len(rows) == 6
        assert {row[2] for row in rows} == {"diverged"}


class TestParser:
    @pytest.mark.parametrize("verb, own", [
        ("train", ["--checkpoint", "--metrics", "--resume"]),
        ("ablate", ["--out"]),
    ])
    def test_training_verbs_share_one_argument_set(self, verb, own, capsys):
        assert run_cli(verb, "--help") == 0
        flags = [word.rstrip(",") for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  -") for word in line.split()[:1]]
        assert flags == ["-h", "--config", "--set", "--seed", "--sketches",
                         "--images", "--semantics", "--synonyms", "--split", *own]


class TestEnvironment:
    def test_bad_log_level_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("ZSIH_LOG", "verbose")
        assert cli.main(["synth", "--seed", "1", "--classes", "1",
                         "--sketches", "s", "--images", "i",
                         "--semantics", "m"]) == 2

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        assert run_cli("encode", "--checkpoint", tmp_path / "none.zsih",
                       "--features", tmp_path / "none.zsft",
                       "--modality", "sketch",
                       "--out", tmp_path / "codes.zscb") == 1
