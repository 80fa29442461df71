import builtins
import errno
import logging
import os
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import tiny_setup, write_fresh
from zsih import formats, pipeline, retrieval
from zsih.data import (
    FeatureStore,
    FormatError,
    feature_dtype,
    load_features,
    load_semantics,
    load_split,
    make_split,
    read_semantic_file,
    read_synonyms,
    save_features,
    save_split,
    synth_dataset,
    synth_from_semantics,
    write_semantic_file,
)


def random_store(rng, n_classes=3, per_class=2, length=2, channels=4):
    rows = {"sketch": [], "image": []}
    item_id = 0
    for cid in range(n_classes):
        for modality in ("sketch", "image"):
            for _ in range(per_class):
                feat = rng.normal(size=(length, channels)).astype(np.float32)
                rows[modality].append((item_id, cid, feat))
                item_id += 1
    records = {m: np.array(r, dtype=feature_dtype(length, channels))
               for m, r in rows.items()}
    return FeatureStore(records)


def class_feats(store, modality):
    """class id -> that class's [n, L, C] maps, in store order."""
    records = store.records[modality]
    return {c: records["feat"][records["class_id"] == c]
            for c in np.unique(records["class_id"]).tolist()}


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        store = random_store(rng)
        path = tmp_path / "feats.zsft"
        save_features(store, path, "image")
        raw = path.read_bytes()
        loaded = load_features(path)
        save_features(loaded, path, "image")
        assert path.read_bytes() == raw
        originals = store.records["image"]
        reloaded = loaded.records["image"]
        assert len(reloaded) == len(originals)
        for name in ("item_id", "class_id", "feat"):
            np.testing.assert_array_equal(reloaded[name], originals[name])

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.zsft"
        save_features(FeatureStore(), path, "sketch")
        loaded = load_features(path)
        assert [len(r) for r in loaded.records.values()] == [0, 0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "feats.zsft"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_features(path)

    def test_truncated_record_names_index(self, rng, tmp_path):
        store = random_store(rng, n_classes=2, per_class=2)
        path = tmp_path / "feats.zsft"
        save_features(store, path, "sketch")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])  # cut into the last record
        with pytest.raises(FormatError, match="record 3"):
            load_features(path)

    def test_truncation_at_every_offset(self, rng, tmp_path):
        store = random_store(rng, n_classes=2, per_class=1, length=1, channels=2)
        path = tmp_path / "feats.zsft"
        save_features(store, path, "image")
        raw = path.read_bytes()
        for cut in range(len(raw)):
            write_fresh(path, raw[:cut])
            with pytest.raises(FormatError):
                load_features(path)

    def test_oversized_count_rejected_before_allocating(self, rng, tmp_path):
        store = random_store(rng, n_classes=1, per_class=1)
        path = tmp_path / "feats.zsft"
        save_features(store, path, "image")
        raw = bytearray(path.read_bytes())
        raw[15:23] = (2 ** 40).to_bytes(8, "little")  # the u64 record count
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="claims 1099511627776 records"):
            load_features(path)

    @pytest.mark.parametrize("length, channels", [(2 ** 16, 2 ** 15), (0, 2 ** 31)])
    def test_map_shape_numpy_cannot_hold_rejected(self, tmp_path, length, channels):
        # no records, so no size check stops it: the record type itself fails
        path = tmp_path / "feats.zsft"
        save_features(FeatureStore(), path, "image")
        raw = bytearray(path.read_bytes())
        raw[7:15] = length.to_bytes(4, "little") + channels.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"feature maps of {length} x {channels}"):
            load_features(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        store = random_store(rng, n_classes=1, per_class=1)
        path = tmp_path / "feats.zsft"
        save_features(store, path, "image")
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_features(path)

    def test_inconsistent_shapes_rejected(self, rng):
        # one modality holds one [L, C]; the sketch and image maps of a
        # training set must agree too
        store = FeatureStore({
            "sketch": np.array([(0, 0, rng.normal(size=(2, 3)))], dtype=feature_dtype(2, 3)),
            "image": np.array([(1, 0, rng.normal(size=(2, 4)))], dtype=feature_dtype(2, 4)),
        })
        with pytest.raises(ValueError, match="inconsistent feature shape"):
            pipeline.PairedDataset.from_stores(store, store, {0: np.zeros(3)}, [0])

    def test_modality_items_is_a_per_item_view(self, rng):
        store = random_store(rng, n_classes=2, per_class=3)
        records = store.records["sketch"]
        items = store.modality_items("sketch")
        assert len(items) == len(records) == 6
        for k in np.arange(6):
            item = items[k]
            assert (item.item_id, item.class_id) == (records["item_id"][k],
                                                     records["class_id"][k])
            np.testing.assert_array_equal(item.feat, records["feat"][k])
            assert item.feat.shape == (2, 4)

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError, match="unknown modality 'video'"):
            FeatureStore({"video": np.empty(0, feature_dtype(1, 2))})


class _DiskFull:
    """A file that stores half of the first chunk written, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, chunk):
        self.f.write(chunk[: len(chunk) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _write_features(path, seed):
    save_features(random_store(np.random.default_rng(seed)), path, "image")


def _write_checkpoint(path, seed):
    config, dataset, *_ = tiny_setup()
    pipeline.save_checkpoint(pipeline.train(replace(config, seed=seed), dataset), path)


def _write_codes(path, seed):
    codes = np.random.default_rng(seed).integers(0, 256, size=(5, 2), dtype=np.uint8)
    retrieval.save_codes(retrieval.CodeMatrix(codes, np.arange(5, dtype=np.uint32),
                                              16, "sketch"), path)


def _write_split(path, seed):
    save_split(make_split(range(6), 2, seed), path)


def _write_semantics(path, seed):
    write_semantic_file({"cat": np.random.default_rng(seed).normal(size=3)}, path)


def _write_pr_dump(path, seed):
    rng = np.random.default_rng(seed)
    codes = retrieval.CodeMatrix(rng.integers(0, 256, size=(6, 1), dtype=np.uint8),
                                 np.arange(6) % 2, 8)
    retrieval.write_pr_dump(retrieval.evaluate(codes, codes, ks=(1, 10, 100)), path)


def _exchange_works(directory):
    """Whether ``write_atomic`` can swap two names in ``directory``."""
    a, b = directory / "a", directory / "b"
    a.write_bytes(b"a")
    b.write_bytes(b"b")
    swapped = formats._exchange(a, b)
    a.unlink()
    b.unlink()
    return swapped


def _refuse_exchange(*args):
    """``renameat2`` as on a filesystem that cannot exchange (EINVAL)."""
    return -1


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [_write_features, _write_checkpoint, _write_codes])
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, write, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "out.bin"
        write(path, 1)
        old = path.read_bytes()
        monkeypatch.setattr(formats, "open",
                            lambda p, mode: _DiskFull(builtins.open(p, mode)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(path, 2)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["out.bin"]
        monkeypatch.undo()
        write(path, 2)
        assert path.read_bytes() != old
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("write", [_write_features, _write_checkpoint, _write_codes,
                                       _write_split, _write_semantics, _write_pr_dump])
    def test_save_replaces_the_file_instead_of_rewriting_it(self, write, tmp_path):
        path = tmp_path / "out"
        write(path, 1)
        old = path.read_bytes()
        with open(path, "rb") as held:
            write(path, 2)
            assert path.read_bytes() != old
            assert held.read() == old
            assert os.fstat(held.fileno()).st_ino != path.stat().st_ino
        assert os.listdir(tmp_path) == ["out"]

    def test_overwrite_swaps_the_names_and_never_renames_over(self, tmp_path,
                                                              monkeypatch):
        if not _exchange_works(tmp_path):
            pytest.skip("the filesystem cannot exchange two names")
        path, expected = tmp_path / "out", tmp_path / "expected"
        _write_codes(path, 1)
        _write_codes(expected, 2)

        def no_replace(*args):
            raise AssertionError("os.replace called")

        monkeypatch.setattr(os, "replace", no_replace)
        _write_codes(path, 2)
        assert path.read_bytes() == expected.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["expected", "out"]

    @pytest.mark.parametrize("renameat2", [None, _refuse_exchange],
                             ids=["no-renameat2", "exchange-fails"])
    def test_overwrite_without_exchange_falls_back_to_replace(self, renameat2, tmp_path,
                                                              monkeypatch):
        path, expected = tmp_path / "out", tmp_path / "expected"
        _write_codes(path, 1)
        _write_codes(expected, 2)
        monkeypatch.setattr(formats, "_renameat2", renameat2)
        replaced = []
        monkeypatch.setattr(os, "replace",
                            lambda *args: replaced.append(args) or os.rename(*args))
        _write_codes(path, 2)
        assert path.read_bytes() == expected.read_bytes()
        assert len(replaced) == 1
        assert sorted(os.listdir(tmp_path)) == ["expected", "out"]

    def test_target_removed_during_the_write_gets_the_new_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with formats.write_atomic(path) as f:
            f.write(b"new")
            path.unlink()
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out"]

    def test_error_in_the_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with pytest.raises(ZeroDivisionError):
            with formats.write_atomic(path) as f:
                f.write(b"new")
                1 / 0
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out"]

    def test_directory_at_the_path_is_left_as_it_is(self, tmp_path):
        path = tmp_path / "out"
        path.mkdir()
        (path / "kept").write_bytes(b"kept")
        with pytest.raises(IsADirectoryError):
            with formats.write_atomic(path) as f:
                f.write(b"new")
        assert os.listdir(path) == ["kept"]
        assert os.listdir(tmp_path) == ["out"]

    def test_directory_made_during_the_write_is_never_swapped_away(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with pytest.raises(IsADirectoryError):
            with formats.write_atomic(path) as f:
                f.write(b"new")
                path.unlink()
                path.mkdir()
                (path / "kept").write_bytes(b"kept")
        assert os.listdir(path) == ["kept"]
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(ZeroDivisionError):
            with formats.write_atomic(tmp_path / "new.bin") as f:
                f.write(b"abc")
                1 / 0
        with pytest.raises(TypeError):
            with formats.write_atomic(tmp_path / "new.bin") as f:
                f.write(b"abc")
                f.write("not bytes")
        assert os.listdir(tmp_path) == []

    def test_device_is_written_in_place(self, tmp_path):
        link = tmp_path / "null"
        link.symlink_to(os.devnull)
        with formats.write_atomic(link) as f:
            f.write(b"abc")
        assert link.is_symlink() and os.listdir(tmp_path) == ["null"]

    def test_file_gets_the_usual_permissions(self, tmp_path):
        umask = os.umask(0o022)
        try:
            with formats.write_atomic(tmp_path / "f.bin") as f:
                f.write(b"x")
            (tmp_path / "plain.bin").write_bytes(b"x")
        finally:
            os.umask(umask)
        assert (tmp_path / "f.bin").stat().st_mode == (tmp_path / "plain.bin").stat().st_mode


class TestSemantics:
    def test_text_round_trip_byte_exact(self, rng, tmp_path):
        table = {f"class_{i}": rng.normal(size=5) for i in range(4)}
        path = tmp_path / "sem.txt"
        write_semantic_file(table, path)
        raw = path.read_bytes()
        loaded = read_semantic_file(path)
        write_semantic_file(loaded, path)
        assert path.read_bytes() == raw
        for name in table:
            np.testing.assert_array_equal(loaded[name], table[name])

    def test_all_names_resolve(self, rng, tmp_path):
        # a class's vector is the line keyed by its decimal id
        path = tmp_path / "sem.txt"
        path.write_text("0 1.0 2.0 3.0\n1 4.0 5.0 6.0\ncat 7.0 8.0 9.0\n")
        table = load_semantics(path, [1, 0])
        assert list(table) == [0, 1]
        assert table[0].tolist() == [1.0, 2.0, 3.0]
        assert table[1].tolist() == [4.0, 5.0, 6.0]

    def test_synonym_fallback(self, rng, tmp_path):
        sem_path = tmp_path / "sem.txt"
        write_semantic_file({"truck": rng.normal(size=3), 1: rng.normal(size=3)}, sem_path)
        syn_path = tmp_path / "syn.txt"
        syn_path.write_text("0\ttruck\n1\ttruck\n")
        table = load_semantics(sem_path, [0, 1], synonyms_path=syn_path)
        raw = read_semantic_file(sem_path)
        np.testing.assert_array_equal(table[0], raw["truck"])
        # an id's own line wins over its synonym
        np.testing.assert_array_equal(table[1], raw["1"])

    def test_unresolved_names_listed(self, rng, tmp_path):
        path = tmp_path / "sem.txt"
        write_semantic_file({1: rng.normal(size=3), "cat": rng.normal(size=3)}, path)
        with pytest.raises(ValueError, match=r"after synonym mapping\): 0, 2$"):
            load_semantics(path, [0, 1, 2])

    def test_only_the_asked_classes_need_a_vector(self, rng, tmp_path):
        path = tmp_path / "sem.txt"
        write_semantic_file({3: rng.normal(size=2)}, path)
        assert list(load_semantics(path, [3])) == [3]

    def test_duplicate_line_last_wins_with_warning(self, tmp_path, caplog):
        path = tmp_path / "sem.txt"
        path.write_text("cat 1.0 2.0\ncat 3.0 4.0\n")
        with caplog.at_level(logging.WARNING, logger="zsih.data"):
            table = read_semantic_file(path)
        assert table["cat"].tolist() == [3.0, 4.0]
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_inconsistent_dims_rejected(self, tmp_path):
        path = tmp_path / "sem.txt"
        path.write_text("cat 1.0 2.0\ndog 1.0\n")
        with pytest.raises(FormatError, match="dimensions"):
            read_semantic_file(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "sem.txt"
        path.write_text("cat 1.0 zap\n")
        with pytest.raises(FormatError, match="non-numeric"):
            read_semantic_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component(self, tmp_path, value):
        path = tmp_path / "sem.txt"
        path.write_text(f"cat 1.0 2.0\ndog 0.5 {value}\n")
        with pytest.raises(FormatError, match=r"sem\.txt:2: non-finite semantic component"):
            read_semantic_file(path)


@pytest.mark.parametrize("read, raw", [
    (read_semantic_file, b"cat 1.0\n\xff 2.0\n"),
    (read_synonyms, b"cat\tdog\n\xff\tdog\n"),
    (load_split, b"seen\t1\n\xff\t2\n"),
    (pipeline.load_config, b"M = 4\n\xff = 2\n"),
])
def test_text_reader_names_the_line_that_is_not_utf8(tmp_path, read, raw):
    path = tmp_path / "text.txt"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=r"text\.txt:2: not UTF-8"):
        read(path)


class TestSplit:
    def test_boundary_single_seen_class(self):
        split = make_split(range(6), 5, seed=0)
        assert len(split.seen) == 1 and len(split.unseen) == 5

    def test_disjoint_across_seeds(self):
        ids = list(range(20))
        for seed in range(1000):
            split = make_split(ids, 7, seed)
            assert not split.seen & split.unseen
            assert split.seen | split.unseen == set(ids)

    def test_deterministic(self):
        a = make_split(range(50), 10, seed=42)
        b = make_split(range(50), 10, seed=42)
        assert a == b

    def test_benchmark_scale_ratio(self):
        split = make_split(range(125), 25, seed=1)
        assert len(split.unseen) == 25 and len(split.seen) == 100

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="n_unseen"):
            make_split(range(5), 5, seed=0)
        with pytest.raises(ValueError, match="n_unseen"):
            make_split(range(5), 0, seed=0)

    def test_file_round_trip(self, tmp_path):
        split = make_split(range(12), 4, seed=9)
        path = tmp_path / "split.txt"
        save_split(split, path)
        assert load_split(path) == split

    @pytest.mark.parametrize("lines, line_no", [
        ("seen\t0\nseen\t1\nunseen\t0\n", 3),
        ("# seed 2\nunseen\t4\nseen\t4\n", 3),
        ("seen\t0\nseen\t0\nunseen\t1\nunseen\t0\n", 4),
    ])
    def test_class_both_seen_and_unseen_names_the_line(self, tmp_path, lines, line_no):
        path = tmp_path / "split.txt"
        path.write_text(lines)
        with pytest.raises(FormatError,
                           match=rf"split\.txt:{line_no}: class \d is both seen and unseen"):
            load_split(path)

    def test_non_integer_seed_names_the_line(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("# seed x\nseen\t1\n")
        with pytest.raises(FormatError, match=r"split\.txt:1: seed 'x'"):
            load_split(path)


class TestSynth:
    def test_zero_noise_collapses_classes(self):
        store, _ = synth_dataset(3, 4, 2, 6, 4, noise=0.0, seed=0)
        for modality in ("sketch", "image"):
            by_class = class_feats(store, modality)
            for feats in by_class.values():
                for feat in feats[1:]:
                    np.testing.assert_array_equal(feat, feats[0])

    def test_identical_semantics_give_identical_latents(self, rng):
        sem = rng.normal(size=(3, 5))
        sem[2] = sem[0]  # two classes share a semantic vector
        store = synth_from_semantics(sem, per_class=2, length=1, channels=6,
                                     noise=0.0, rng=np.random.default_rng(4))
        sketches = class_feats(store, "sketch")
        np.testing.assert_array_equal(sketches[0][0], sketches[2][0])
        images = class_feats(store, "image")
        np.testing.assert_array_equal(images[0][0], images[2][0])

    def test_modalities_differ(self):
        store, _ = synth_dataset(2, 1, 1, 8, 4, noise=0.0, seed=0)
        sk = class_feats(store, "sketch")[0][0]
        im = class_feats(store, "image")[0][0]
        assert np.max(np.abs(sk - im)) > 1e-3

    def test_nearest_centroid_accuracy(self):
        store, _ = synth_dataset(10, 20, 2, 16, 8, noise=0.1, seed=5)
        correct = 0
        total = 0
        for modality in ("sketch", "image"):
            by_class = class_feats(store, modality)
            centroids = {c: np.mean([f.mean(axis=0) for f in feats], axis=0)
                         for c, feats in by_class.items()}
            for cid, feats in by_class.items():
                for feat in feats:
                    v = feat.mean(axis=0)
                    best = min(centroids, key=lambda c: np.sum((v - centroids[c]) ** 2))
                    correct += best == cid
                    total += 1
        assert correct / total >= 0.95

    def test_semantic_distance_tracks_latent_distance(self):
        store, table = synth_dataset(10, 1, 1, 12, 6, noise=0.0, seed=3)
        protos = {c: feats[0].reshape(-1)
                  for c, feats in class_feats(store, "image").items()}
        sem_d, lat_d = [], []
        for i in range(10):
            for j in range(i + 1, 10):
                sem_d.append(np.sum((table[i] - table[j]) ** 2))
                lat_d.append(np.sum((protos[i] - protos[j]) ** 2))

        def ranks(x):
            order = np.argsort(x)
            out = np.empty(len(x))
            out[order] = np.arange(len(x))
            return out

        rs, rl = ranks(sem_d), ranks(lat_d)
        rho = np.corrcoef(rs, rl)[0, 1]
        assert rho > 0.5

    def test_fewer_channels_than_latent_dims(self):
        # the latents are capped at the channel count: 3 here, not min(4, 8)
        store, _ = synth_dataset(6, 5, 2, 3, 4, 0.3, 1)
        assert store.records["image"]["feat"].shape == (30, 2, 3)
        sem = np.random.default_rng(1).normal(size=(6, 4))
        store = synth_from_semantics(sem, 5, 2, 3, 0.3, np.random.default_rng(2))
        items = oracles.naive_synth(sem, 5, 2, 3, 0.3, np.random.default_rng(2),
                                    latent_cap=3)
        np.testing.assert_array_equal(store.records["sketch"]["feat"],
                                      [i[3] for i in items if i[2] == "sketch"])

    @pytest.mark.parametrize("seed, n_classes, per_class, d_s", [
        (0, 4, 3, 5), (1, 3, 1, 12), (2, 5, 6, 2)])
    def test_matches_item_by_item_oracle(self, seed, n_classes, per_class, d_s):
        sem = np.random.default_rng(seed).normal(size=(n_classes, d_s))
        store = synth_from_semantics(sem, per_class, 3, 10, 0.2,
                                     np.random.default_rng(seed + 100))
        items = oracles.naive_synth(sem, per_class, 3, 10, 0.2,
                                    np.random.default_rng(seed + 100))
        for modality in ("sketch", "image"):
            ref = [item for item in items if item[2] == modality]
            records = store.records[modality]
            assert records["feat"].dtype == np.float32
            np.testing.assert_array_equal(records["item_id"], [i[0] for i in ref])
            np.testing.assert_array_equal(records["class_id"], [i[1] for i in ref])
            np.testing.assert_array_equal(records["feat"], np.stack([i[3] for i in ref]))

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="positive"):
            synth_dataset(0, 1, 1, 1, 1, 0.1, 0)
        with pytest.raises(ValueError, match="noise"):
            synth_dataset(2, 1, 1, 1, 1, -0.5, 0)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and non-negative"):
            synth_dataset(2, 1, 1, 1, 1, noise, 0)
