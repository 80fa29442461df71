"""Seeded corruption of the three binary formats: a single-bit flip at
every byte and a cut at every offset of small ZSFT, ZSCB and ZSIH files.
Each corrupt file must either load or raise ``FormatError``; a few go
through the CLI too, which must exit 1 with no traceback.  The text
config gets the same corruptions, and each must load or name its line."""

import re

import numpy as np
import pytest

from conftest import tiny_config
from zsih import cli, data, model, pipeline, retrieval
from zsih.formats import FormatError

FUZZ_SEED = 20180611
CHANNELS = 2


def _features():
    store, _ = data.synth_dataset(2, 1, 1, CHANNELS, 2, 0.1, 0)
    return store


def write_features(path):
    data.save_features(_features(), path, "image")


def write_codes(path):
    rng = np.random.default_rng(0)
    codes = retrieval.CodeMatrix(rng.integers(0, 256, size=(3, 2), dtype=np.uint8),
                                 [0, 1, 1], 13, "image")
    retrieval.save_codes(codes, path)


def write_checkpoint(path):
    config = tiny_config(M=2, d_f=1, gcn_hidden=1)
    rng = np.random.default_rng(0)
    params = model.init_params(config, CHANNELS, 2, rng)
    arrays = params.split(params.theta)
    zeros = params.split(np.zeros_like(params.theta))
    pipeline.save_checkpoint(pipeline.Checkpoint(
        config=config, params=arrays, opt_step=0, opt_m=zeros, opt_v=zeros,
        iteration=0, rng_state=rng.bit_generator.state), path)


def load_checkpoint(path):
    pipeline.load_checkpoint(path).build_params()


FORMATS = {
    "zsft": (write_features, data.load_features),
    "zscb": (write_codes, retrieval.load_codes),
    "zsih": (write_checkpoint, load_checkpoint),
}


def corruptions(raw):
    """(name, bytes): one seeded bit flip at each byte, then each cut."""
    rng = np.random.default_rng(FUZZ_SEED)
    for i, bit in enumerate(rng.integers(0, 8, size=len(raw))):
        flipped = bytearray(raw)
        flipped[i] ^= 1 << int(bit)
        yield f"flip byte {i} bit {bit}", bytes(flipped)
    for cut in range(len(raw)):
        yield f"cut at {cut}", raw[:cut]


def outcomes(fmt, tmp_path):
    """(name, bytes, outcome) per corruption; the outcome is "loaded",
    "FormatError" or the repr of any other exception."""
    write, load = FORMATS[fmt]
    good = tmp_path / f"good.{fmt}"
    write(good)
    path = tmp_path / f"corrupt.{fmt}"
    result = []
    for name, raw in corruptions(good.read_bytes()):
        path.write_bytes(raw)
        try:
            load(path)
            outcome = "loaded"
        except FormatError:
            outcome = "FormatError"
        except Exception as err:  # noqa: BLE001 - any other outcome is the failure
            outcome = repr(err)
        result.append((name, raw, outcome))
    return result


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_corruption_loads_or_raises_format_error(fmt, tmp_path):
    result = outcomes(fmt, tmp_path)
    others = {name: out for name, _, out in result if out not in ("loaded", "FormatError")}
    assert others == {}
    n_bytes = len(result) // 2
    flips, cuts = result[:n_bytes], result[n_bytes:]
    assert {out for _, _, out in cuts} == {"FormatError"}
    assert {out for _, _, out in flips[:4]} == {"FormatError"}   # the magic


def test_every_config_corruption_loads_or_names_its_line(tmp_path):
    raw = pipeline.format_config(pipeline.ZsihConfig()).encode("utf-8")
    path = tmp_path / "corrupt.cfg"
    named = re.compile(rf"^{re.escape(str(path))}:\d+: ")
    loaded, unnamed = 0, {}
    for name, corrupt in corruptions(raw):
        path.write_bytes(corrupt)
        try:
            pipeline.load_config(path)
            loaded += 1
        except ValueError as err:
            if not named.match(str(err)):
                unnamed[name] = str(err)
    assert unnamed == {}
    assert 0 < loaded < 2 * len(raw)


def _rejected_flips(fmt, tmp_path, n):
    """``n`` seeded bit flips of a good file that its loader rejects."""
    rejected = [raw for name, raw, out in outcomes(fmt, tmp_path)
                if out == "FormatError" and name.startswith("flip")]
    picks = np.random.default_rng(FUZZ_SEED).choice(len(rejected), size=n, replace=False)
    return [rejected[i] for i in picks]


def _expect_clean_exit_1(capsys, *args):
    code = cli.main([str(a) for a in args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_encode_rejects_corrupt_inputs(tmp_path, capsys):
    good_ckpt, good_feats = tmp_path / "model.zsih", tmp_path / "feats.zsft"
    write_checkpoint(good_ckpt)
    write_features(good_feats)
    out = tmp_path / "codes.zscb"
    assert cli.main(["encode", "--checkpoint", str(good_ckpt), "--features",
                     str(good_feats), "--modality", "image", "--out", str(out)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad"
    for raw in _rejected_flips("zsih", tmp_path, 3):
        bad.write_bytes(raw)
        _expect_clean_exit_1(capsys, "encode", "--checkpoint", bad, "--features",
                             good_feats, "--modality", "image", "--out", out)
    for raw in _rejected_flips("zsft", tmp_path, 3):
        bad.write_bytes(raw)
        _expect_clean_exit_1(capsys, "encode", "--checkpoint", good_ckpt, "--features",
                             bad, "--modality", "image", "--out", out)


def test_cli_eval_rejects_corrupt_codes(tmp_path, capsys):
    good = tmp_path / "codes.zscb"
    write_codes(good)
    bad = tmp_path / "bad.zscb"
    for raw in _rejected_flips("zscb", tmp_path, 3):
        bad.write_bytes(raw)
        _expect_clean_exit_1(capsys, "eval", "--queries", bad, "--gallery", good,
                             "--out", tmp_path / "report.txt")
    assert not (tmp_path / "report.txt").exists()
