import io
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import tiny_config, tiny_setup, write_fresh
from zsih import model, objective, pipeline
from zsih.data import FeatureStore, FormatError, feature_dtype, synth_dataset
from zsih.pipeline import (
    Checkpoint,
    PairedDataset,
    ZsihConfig,
    build_adjacency,
    checkpoint_bytes,
    format_config,
    load_config,
    load_checkpoint,
    parse_config,
    read_config,
    sample_batch,
    save_checkpoint,
    train,
    train_step,
)


class TestConfig:
    def test_round_trip(self):
        config = ZsihConfig(M=8, t=0.25, fusion_mode="mfb", use_gcn=False)
        parsed = parse_config(format_config(config))
        assert parsed == config

    def test_comments_and_spacing(self):
        parsed = parse_config("# header\nM = 8   # bits\n\nt=0.5\n")
        assert parsed.M == 8 and parsed.t == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("bogus = 1\n")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError, match="config line 1: .*boolean"):
            parse_config("use_gcn = maybe\n")

    @pytest.mark.parametrize("line, message", [
        ("bogus = 2", "unknown key 'bogus'"),
        ("M 4", "expected 'key = value'"),
        ("d_f = x", "invalid literal"),
        ("use_gcn = maybe", "config key 'use_gcn' expects a boolean"),
        ("M = 0", "M must be at least 1"),
    ])
    def test_config_file_error_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"M = 4\n{line}\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:2: {message}"):
            load_config(path)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(t=0.0), dict(N_B=1), dict(M=0), dict(fusion_mode="sum"),
         dict(K=0), dict(lr=0.0), dict(grad_clip=-1.0), dict(eps_hat=0.0)],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ZsihConfig(**kwargs).validate()

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ZsihConfig(seed=-1).validate()
        with pytest.raises(ValueError, match="seed must be non-negative"):
            parse_config("seed = -1\n")

    @pytest.mark.parametrize("text", [
        "lr = nan", "t = inf", "eps_hat = nan", "grad_clip = nan", "beta1 = -inf",
        "lr = nan\nt = inf\neps_hat = nan\ngrad_clip = nan"])
    def test_non_finite_floats_rejected(self, text):
        with pytest.raises(ValueError, match="must be finite"):
            parse_config(text)

    def test_overrides_win(self):
        config = read_config([("--set M", "M", "16"), ("--set use_gcn", "use_gcn", "false")],
                             ZsihConfig(M=8))
        assert config.M == 16 and config.use_gcn is False

    def test_override_unknown_key(self):
        with pytest.raises(ValueError, match=r"^--set widht: unknown key 'widht'$"):
            read_config([("--set widht", "widht", "3")], ZsihConfig())


class TestBuildAdjacency:
    def test_identical_semantics_give_one(self):
        # an all-ones kernel: each of the four degrees is 4, and every entry
        # is one times (1 / sqrt(4))^2 = 1/4, exact in binary
        sem = np.tile([[0.5, -0.5]], (4, 1))
        adj = build_adjacency(sem, 0.1)
        np.testing.assert_array_equal(adj, np.full((4, 4), 0.25))

    def test_unit_distance_value(self):
        # kernel entry e^-1 off the diagonal, both degrees 1 + e^-1
        sem = np.array([[0.0], [math.sqrt(0.1)]])
        adj = build_adjacency(sem, 0.1)
        assert abs(adj[0, 1] - math.exp(-1.0) / (1.0 + math.exp(-1.0))) < 1e-12
        assert abs(adj[0, 1] - 0.268941) < 1e-6
        assert abs(adj[0, 0] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12

    def test_tiny_bandwidth_binarizes_edges(self, rng):
        # every off-diagonal kernel entry underflows to 0, so the graph is
        # the identity
        sem = rng.normal(size=(5, 4))
        sem /= np.linalg.norm(sem, axis=1, keepdims=True)
        adj = build_adjacency(sem, 1e-6)
        np.testing.assert_array_equal(adj, np.eye(5))

    def test_symmetry_diagonal_and_range(self, rng):
        sem = rng.normal(size=(6, 3))
        adj = build_adjacency(sem, 0.7)
        # symmetric up to rounding: (A[j,k] d_j) d_k and (A[k,j] d_k) d_j
        # round apart in the last bit
        np.testing.assert_allclose(adj, adj.T, rtol=1e-15, atol=0)
        # the kernel's diagonal is 1, so the normalized one is 1 / degree
        deg = 1.0 / np.diag(adj)
        assert np.all(deg >= 1.0) and np.all(deg <= 6.0)
        assert np.all((adj > 0) & (adj <= 1))

    @pytest.mark.parametrize("t", [0.1, 0.8, 5.0])
    def test_matches_entry_by_entry_oracle(self, rng, t):
        sem = rng.normal(size=(7, 3))
        np.testing.assert_allclose(build_adjacency(sem, t), oracles.naive_adjacency(sem, t),
                                   rtol=1e-14, atol=0)

    def test_monotone_in_distance(self):
        sem = np.array([[0.0], [1.0], [2.5]])
        adj = build_adjacency(sem, 1.0)
        assert adj[0, 1] > adj[0, 2]

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_adjacency(np.zeros((2, 2)), 0.0)


class TestPairedDataset:
    def test_missing_modality_rejected(self):
        store, table = synth_dataset(3, 2, 1, 4, 3, 0.0, seed=0)
        sketches = store.records["sketch"]
        images = store.records["image"]
        images = images[images["class_id"] != 1]
        with pytest.raises(ValueError, match=r"missing a modality: \[1\]"):
            PairedDataset(sketches, images, table, store.classes)

    def test_missing_semantics_rejected(self):
        store, table = synth_dataset(3, 2, 1, 4, 3, 0.0, seed=0)
        del table[2]
        with pytest.raises(ValueError, match="without semantics"):
            PairedDataset.from_stores(store, store, table, store.classes)

    def test_class_restriction(self):
        store, table = synth_dataset(5, 2, 1, 4, 3, 0.0, seed=0)
        ds = PairedDataset.from_stores(store, store, table, [3, 1])
        assert ds.classes == [1, 3]


class TestSampleBatch:
    def test_single_class_dataset(self):
        store, table = synth_dataset(1, 1, 2, 4, 3, 0.0, seed=0)
        # single-class split is degenerate; build the view directly
        ds = PairedDataset.from_stores(store, store, table, [0])
        rng = np.random.default_rng(0)
        batch = sample_batch(ds, 4, rng)
        assert len(batch) == 4
        np.testing.assert_array_equal(batch.semantics, np.stack([table[0]] * 4))
        for i in range(1, 4):
            np.testing.assert_array_equal(batch.sketch_feats[i], batch.sketch_feats[0])
            np.testing.assert_array_equal(batch.image_feats[i], batch.image_feats[0])

    def test_pairs_share_labels_over_many_draws(self):
        """Each row's sketch, image and semantic vector come from one class;
        without noise, a class's maps are all its prototype."""
        store, table = synth_dataset(6, 3, 1, 5, 3, 0.0, seed=1)
        ds = PairedDataset.from_stores(store, store, table, store.classes)
        sk, im = store.records["sketch"], store.records["image"]
        sk_proto = {c: sk["feat"][sk["class_id"] == c][0] for c in ds.classes}
        im_proto = {c: im["feat"][im["class_id"] == c][0] for c in ds.classes}
        class_of = {table[c].tobytes(): c for c in ds.classes}
        assert len(class_of) == len(ds.classes)
        rng = np.random.default_rng(7)
        drawn = 0
        while drawn < 10_000:
            batch = sample_batch(ds, 16, rng)
            for i, row in enumerate(batch.semantics):
                label = class_of[row.tobytes()]
                np.testing.assert_array_equal(
                    batch.sketch_feats[i], sk_proto[label].astype(np.float64))
                np.testing.assert_array_equal(
                    batch.image_feats[i], im_proto[label].astype(np.float64))
            drawn += 16
        assert drawn >= 10_000

    def test_seeded_determinism(self):
        store, table = synth_dataset(4, 3, 1, 4, 3, 0.2, seed=2)
        ds = PairedDataset.from_stores(store, store, table, store.classes)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            runs.append([sample_batch(ds, 5, rng) for _ in range(20)])
        for b1, b2 in zip(*runs):
            np.testing.assert_array_equal(b1.semantics, b2.semantics)
            np.testing.assert_array_equal(b1.sketch_feats, b2.sketch_feats)
            np.testing.assert_array_equal(b1.image_feats, b2.image_feats)


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_pair_by_pair_oracle(self, seed):
        """Unequal class sizes in shuffled store order, a class with a
        single sketch, one with a single image, and a class left out."""
        rng = np.random.default_rng(seed)
        store, table = synth_dataset(6, 5, 2, 4, 3, 0.3, seed=seed)
        kept = {"sketch": [5, 3, 1, 4, 2, 5], "image": [2, 5, 3, 1, 5, 4]}
        records = {}
        for modality, counts in kept.items():
            rec = store.records[modality]
            rank = np.arange(len(rec)) % 5  # position within its class
            rec = rec[rank < np.array(counts)[rec["class_id"]]]
            records[modality] = rec[rng.permutation(len(rec))]
        classes = [0, 2, 3, 4, 5]
        per_class = [{c: list(r["feat"][r["class_id"] == c]) for c in classes}
                     for r in records.values()]
        ds = PairedDataset(records["sketch"], records["image"], table, classes)
        fast, slow = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        for _ in range(30):
            batch = sample_batch(ds, 7, fast)
            sk, im, sem = oracles.naive_sample_batch(*per_class, table, 7, slow)
            np.testing.assert_array_equal(batch.sketch_feats, sk)
            np.testing.assert_array_equal(batch.image_feats, im)
            np.testing.assert_array_equal(batch.semantics, sem)
        assert fast.bit_generator.state == slow.bit_generator.state


class TestForwardMultimodal:
    @pytest.mark.parametrize("use_gcn", [True, False])
    @pytest.mark.parametrize("mode", model.FUSION_MODES)
    def test_matches_per_item_numpy_oracle(self, mode, use_gcn):
        config, _, params, batch, adj, _, _ = tiny_setup(
            fusion_mode=mode, use_gcn=use_gcn, N_B=6, length=3)
        arrays = params.split(params.theta)
        ref = oracles.naive_forward(batch.sketch_feats, batch.image_feats, arrays, mode,
                                    batch.semantics, config.t if use_gcn else None)
        trunk = model.forward_multimodal(batch, params, adj)
        for got, want in zip((trunk.b, trunk.f_out, trunk.g_out), ref, strict=True):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_fusion_raw_dimensions(self, rng):
        # concat and MFB re-project their raw rows through w_proj
        n, d_f = 2, 3
        h_sk = rng.normal(size=(n, d_f))
        h_im = rng.normal(size=(n, d_f))
        raw_width = {"kronecker": None, "concat": 2 * d_f, "mfb": d_f}
        for mode, width in raw_width.items():
            params = model.init_params(tiny_config(d_f=d_f, fusion_mode=mode), 6, 3, rng)
            if width is not None:
                assert params.shapes["fusion.w_proj"] == (width, d_f * d_f)
            assert model.fuse_modalities(h_sk, h_im, params).data.shape == (n, d_f * d_f)

    def test_code_probabilities_in_unit_interval(self):
        _, _, params, batch, adj, _, _ = tiny_setup()
        trunk = model.forward_multimodal(batch, params, adj)
        for out in (trunk.b, trunk.f_out, trunk.g_out):
            assert np.all((out > 0) & (out < 1))

    def test_ablation_trajectories_identical(self, monkeypatch):
        # the no-GCN run is the full model trained over the identity graph
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=10)
        no_gcn = checkpoint_bytes(train(replace(config, use_gcn=False), dataset))
        monkeypatch.setattr(pipeline, "build_adjacency", lambda sem, t: np.eye(len(sem)))
        full = train(config, dataset)
        assert checkpoint_bytes(replace(full, config=replace(config, use_gcn=False))) == no_gcn


class TestParamTable:
    @pytest.mark.parametrize("mode", model.FUSION_MODES)
    def test_init_matches_one_weight_at_a_time_oracle(self, mode):
        config = tiny_config(fusion_mode=mode, d_f=3, gcn_hidden=5, M=4)
        params = model.init_params(config, 6, 3, np.random.default_rng(9))
        ref = oracles.naive_init(mode, 6, 3, 5, 4, 3, np.random.default_rng(9))
        weights = params.split(params.theta)
        assert list(weights) == list(ref)
        assert params.shapes == model.param_shapes(config, 6, 3)
        for name, arr in ref.items():
            assert weights[name].shape == arr.shape
            np.testing.assert_array_equal(weights[name], arr)
        np.testing.assert_array_equal(
            params.theta, np.concatenate([a.ravel() for a in ref.values()]))

    def test_weights_are_views_into_the_flat_buffers(self):
        _, _, params, _, _, _, _ = tiny_setup()
        for name in params.shapes:
            group, weight = name.split(".")
            assert np.shares_memory(getattr(getattr(params, group), weight), params.theta)
            assert np.shares_memory(getattr(getattr(params.grad_groups, group), weight),
                                    params.grad)
        params.theta[...] = 1.5
        assert np.all(params.dec.w_mu == 1.5)
        params.grad[...] = 2.5
        assert np.all(params.grad_groups.dec.w_mu == 2.5)

    def test_grouped_views_match_the_table(self):
        _, _, params, _, _, _, _ = tiny_setup()
        flat = np.arange(params.theta.size, dtype=np.float64)
        groups = params.grouped(flat)
        for name, view in params.split(flat).items():
            group, weight = name.split(".")
            got = getattr(getattr(groups, group), weight)
            assert np.shares_memory(got, flat)
            np.testing.assert_array_equal(got, view)

    def test_arrays_are_copied_not_aliased(self):
        config, _, params, _, _, _, _ = tiny_setup()
        arrays = {k: v.copy() for k, v in params.split(params.theta).items()}
        rebuilt = model.params_from_arrays(config, arrays)
        rebuilt.theta += 1.0
        np.testing.assert_array_equal(arrays["enc_sk.w"], params.enc_sk.w)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.pop("fusion.w_sk"), "lacks weight 'fusion.w_sk'"),
        (lambda a: a.update({"extra.w": np.zeros(2)}), "unexpected weight 'extra.w'"),
        (lambda a: a.update({"enc_sk.w": np.zeros((3, 3))}),
         r"'enc_sk.w' has shape \(3, 3\), expected \(3, 4\)"),
        (lambda a: a.update({"attn_im.score_bias": np.zeros(())}),
         r"'attn_im.score_bias' has shape \(\), expected \(1,\)"),
    ])
    def test_mismatched_arrays_rejected(self, edit, message):
        config, _, params, _, _, _, _ = tiny_setup()
        arrays = dict(params.split(params.theta))
        edit(arrays)
        with pytest.raises(ValueError, match=message):
            model.params_from_arrays(config, arrays)


# block boundaries of B = model.ENCODE_BLOCK: below, at and past one block
# and four, a one-row remainder merged into the last block (B + 1, 2B + 1,
# 3B + 1, 4B + 1 and 12B + 1), and a two-row and a 63-row last block
_B = model.ENCODE_BLOCK
BLOCK_SIZES = [0, 1, 2, _B - 1, _B, _B + 1, _B + 2, 2 * _B + 1, 3 * _B + 1,
               4 * _B - 1, 4 * _B, 4 * _B + 1, 4 * _B + 2, 8 * _B + 63, 12 * _B + 1]


@pytest.fixture(scope="module", params=[(4, 32), (49, 64)], ids=["4x32", "49x64"])
def encode_inputs(request):
    """Weights of one image encoder and a store of max(BLOCK_SIZES) maps of
    the given [L, C]."""
    length, channels = request.param
    rng = np.random.default_rng(11)
    params = model.init_params(tiny_config(M=64, d_f=16), channels, 3, rng)
    records = np.zeros(max(BLOCK_SIZES), feature_dtype(length, channels))
    records["feat"] = rng.normal(size=records["feat"].shape)
    return params, FeatureStore({"image": records}).records["image"]["feat"]


# encode inputs: per-item float32 [L, C] views (as the benchmark passes
# them), the strided record field (as `zsih encode` does) and one float64 array
ENCODE_FORMS = {
    "views": list,
    "field": lambda feat: feat,
    "float64": lambda feat: feat.astype(np.float64),
}


class TestEncodeFeatures:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("form", ENCODE_FORMS)
    def test_blocks_equal_one_shot_encode(self, encode_inputs, form, n):
        params, feat = encode_inputs
        maps = ENCODE_FORMS[form](feat[:n])
        if form == "views" and n == 0:
            # an empty list carries no [L, C], and both forms reject it
            for encode in (model.encode_features, oracles.one_shot_encode):
                with pytest.raises(ValueError, match=r"got \(0,\)"):
                    encode(maps, params.attn_im, params.enc_im)
            return
        blocked = model.encode_features(maps, params.attn_im, params.enc_im)
        one_shot = oracles.one_shot_encode(maps, params.attn_im, params.enc_im)
        assert blocked.shape == (n, params.code_bits)
        assert np.array_equal(blocked.view(np.int64), one_shot.view(np.int64))

    def _setup(self):
        _, _, params, _, _, _, _ = tiny_setup(length=3)
        rng = np.random.default_rng(5)
        maps = [rng.normal(size=(3, 6)).astype(np.float32) for _ in range(9)]
        return params, maps

    def test_batch_rows_equal_single_encodes(self):
        params, maps = self._setup()
        batched = model.encode_features(maps, params.attn_sk, params.enc_sk)
        assert batched.shape == (9, params.code_bits)
        for i, fm in enumerate(maps):
            single = model.encode_features([fm], params.attn_sk, params.enc_sk)
            np.testing.assert_allclose(batched[i:i + 1], single, rtol=0, atol=1e-12)

    def test_empty_input_gives_empty_codes(self):
        params, _ = self._setup()
        out = model.encode_features(np.zeros((0, 3, 6), np.float32),
                                    params.attn_sk, params.enc_sk)
        assert out.shape == (0, params.code_bits)


class TestTrain:
    def test_zero_iterations_returns_initial_params(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=0)
        ckpt = train(config, dataset)
        assert ckpt.iteration == 0
        rng = np.random.default_rng(config.seed)
        fresh = model.init_params(config, dataset.feat_shape[1],
                                  dataset.semantic_dim, rng)
        for name, weight in fresh.split(fresh.theta).items():
            np.testing.assert_array_equal(ckpt.params[name], weight)

    def test_no_gcn_run_never_builds_the_kernel(self, monkeypatch):
        def refuse(semantics, t):
            raise AssertionError("build_adjacency called with use_gcn = false")

        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=5, use_gcn=False)
        monkeypatch.setattr(pipeline, "build_adjacency", refuse)
        assert train(config, dataset).iteration == 5

    def test_toy_loss_decreases(self):
        config, dataset, _, _, _, _, _ = tiny_setup(
            n_classes=8, per_class=3, max_iters=500, N_B=8, M=8)
        metrics = io.StringIO()
        train(config, dataset, metrics_out=metrics)
        lines = metrics.getvalue().strip().splitlines()
        assert len(lines) == 500
        first = float(lines[0].split("\t")[1])
        last = float(lines[-1].split("\t")[1])
        assert last < first

    def test_metrics_format(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=3)
        metrics = io.StringIO()
        train(config, dataset, metrics_out=metrics)
        lines = metrics.getvalue().strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            cols = line.split("\t")
            assert int(cols[0]) == i
            total, ent, dec, reg = map(float, cols[1:])
            assert abs(total - (ent + dec + reg)) < 1e-9

    def test_gradient_clipping_changes_trajectory(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=10)
        plain = train(config, dataset)
        clipped_config = tiny_config(max_iters=10, grad_clip=1e-4)
        clipped = train(clipped_config, dataset)
        assert clipped.iteration == 10
        assert any(
            not np.array_equal(plain.params[k], clipped.params[k])
            for k in plain.params)

    def test_multiple_monte_carlo_draws(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=10, K=3)
        metrics = io.StringIO()
        ckpt = train(config, dataset, metrics_out=metrics)
        assert ckpt.iteration == 10
        totals = [float(l.split("\t")[1])
                  for l in metrics.getvalue().strip().splitlines()]
        assert all(np.isfinite(t) for t in totals)

    def test_seeded_runs_are_bit_identical(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=25)
        b1 = checkpoint_bytes(train(config, dataset))
        b2 = checkpoint_bytes(train(config, dataset))
        assert b1 == b2

    def test_resume_continues_exactly(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=30)
        m_full = io.StringIO()
        full = train(config, dataset, metrics_out=m_full)

        config_half = tiny_config(max_iters=15)
        m_split = io.StringIO()
        half = train(config_half, dataset, metrics_out=m_split)
        resumed = train(config, dataset, metrics_out=m_split, resume=half)

        assert m_split.getvalue() == m_full.getvalue()
        assert checkpoint_bytes(resumed) == checkpoint_bytes(full)

    def test_stop_reason_max_iters(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=3)
        assert train(config, dataset).stop_reason == "max_iters"

    def test_stop_reason_converged(self, monkeypatch):
        monkeypatch.setattr(pipeline, "CONVERGENCE_WINDOW", 2)
        monkeypatch.setattr(pipeline, "CONVERGENCE_RTOL", 1e6)
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=50)
        ckpt = train(config, dataset)
        assert (ckpt.stop_reason, ckpt.iteration) == ("converged", 4)

    def test_diverged_step_keeps_last_good_state(self, monkeypatch):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=3)
        good = train(config, dataset)
        calls = []
        real_step = pipeline.train_step

        def failing_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise FloatingPointError("non-finite loss")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train_step", failing_step)
        ckpt = train(tiny_config(max_iters=10), dataset)
        assert (ckpt.stop_reason, ckpt.iteration) == ("diverged", 3)
        for name in good.params:
            np.testing.assert_array_equal(ckpt.params[name], good.params[name])

    @pytest.mark.parametrize("grad_clip", [0.0, 0.01])
    def test_infinite_gradient_aborts_with_or_without_clipping(self, monkeypatch, grad_clip):
        config, _, params, batch, adj, eps, _ = tiny_setup(grad_clip=grad_clip)
        real = pipeline.estimate_gradients

        def with_inf(loss, p):
            grad = real(loss, p)
            grad[0] = np.inf
            return grad

        monkeypatch.setattr(pipeline, "estimate_gradients", with_inf)
        state = objective.AdamState.init(params)
        before = params.theta.copy()
        with pytest.raises(FloatingPointError, match="'attn_sk.score_weights'"):
            train_step(batch, params, state, adj, eps, config)
        assert state.step == 0
        np.testing.assert_array_equal(params.theta, before)

    def test_resume_config_mismatch_rejected(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=2)
        ckpt = train(config, dataset)
        other = tiny_config(max_iters=2, M=8)
        with pytest.raises(ValueError, match="does not match"):
            train(other, dataset, resume=ckpt)

    def test_non_finite_loss_aborts_with_last_good_state(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=5)
        ckpt = train(config, dataset)
        # poison the decoder so the next step overflows the likelihood
        ckpt.params["dec.b_logvar"][...] = -800.0
        ckpt.config = tiny_config(max_iters=10)
        resumed = train(ckpt.config, dataset, resume=ckpt)
        assert resumed.iteration == 5
        assert resumed.stop_reason == "diverged"
        np.testing.assert_array_equal(resumed.params["dec.b_logvar"],
                                      np.full_like(resumed.params["dec.b_logvar"], -800.0))


class TestCheckpoint:
    def _make(self, max_iters=4):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=max_iters)
        return train(config, dataset)

    def test_round_trip_is_byte_exact(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "model.zsih"
        save_checkpoint(ckpt, path)
        raw1 = path.read_bytes()
        loaded = load_checkpoint(path)
        save_checkpoint(loaded, path)
        assert path.read_bytes() == raw1

    def test_loaded_fields_match(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "model.zsih"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.iteration == ckpt.iteration
        assert loaded.opt_step == ckpt.opt_step
        assert loaded.rng_state == ckpt.rng_state
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
            np.testing.assert_array_equal(loaded.opt_m[name], ckpt.opt_m[name])
            np.testing.assert_array_equal(loaded.opt_v[name], ckpt.opt_v[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.zsih"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "model.zsih"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_loaded_checkpoint_has_no_stop_reason(self, tmp_path):
        path = tmp_path / "model.zsih"
        save_checkpoint(self._make(), path)
        assert load_checkpoint(path).stop_reason is None

    def test_truncation_at_every_offset(self, tmp_path):
        config = tiny_config(M=1, d_f=1, gcn_hidden=1, max_iters=0)
        ckpt = Checkpoint(
            config=config, params={"w": np.ones((2, 1)), "s": np.array(0.5)},
            opt_step=0, opt_m={"w": np.zeros((2, 1)), "s": np.array(0.0)},
            opt_v={"w": np.zeros((2, 1)), "s": np.array(0.0)}, iteration=0,
            rng_state=np.random.default_rng(0).bit_generator.state)
        raw = checkpoint_bytes(ckpt)
        path = tmp_path / "model.zsih"
        for cut in range(len(raw)):
            write_fresh(path, raw[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(path)
        write_fresh(path, raw)
        assert checkpoint_bytes(load_checkpoint(path)) == raw

    def test_oversized_dims_rejected_before_allocating(self, tmp_path):
        raw = checkpoint_bytes(self._make())
        # the first array follows magic, version, config and its name
        cfg_len = struct.unpack_from("<I", raw, 6)[0]
        pos = 10 + cfg_len + 4
        name_len = struct.unpack_from("<H", raw, pos)[0]
        pos += 2 + name_len
        ndim = raw[pos]
        assert ndim == 2
        bad = bytearray(raw)
        struct.pack_into("<II", bad, pos + 1, 2 ** 20, 2 ** 20)
        path = tmp_path / "model.zsih"
        path.write_bytes(bytes(bad))
        with pytest.raises(FormatError, match=r"array of shape \(1048576, 1048576\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, message", [
        (b"M = 4", b"M = \xff", "bad checkpoint config: 'utf-8' codec"),
        (b"fusion_mode", b"fusiOn_mode", "bad checkpoint config: config line 9: unknown key"),
        (b"max_iters = 4", b"max_iters = -4",
         "bad checkpoint config: config line 7: max_iters must be non-negative"),
        (b"t = 0.5", b"t = inf", "bad checkpoint config: config line 4: t must be finite"),
        (b"enc_im.b", b"enc_\xe9m.b", "bad parameter name: 'utf-8' codec"),
    ])
    def test_corrupt_text_raises_format_error(self, tmp_path, old, new, message):
        raw = checkpoint_bytes(self._make())
        assert raw.count(old) == 1
        path = tmp_path / "model.zsih"
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, flip, message", [
        # the file ends in has_uint32 (1 byte), uinteger (4), the PCG64
        # state (16) and its increment (16, little-endian): has_uint32 0 -> 2,
        # and the increment's low bit, which every PCG64 stream has set
        (-37, 2, "has_uint32 is 2, expected 0 or 1"),
        (-16, 1, "PCG64 increment is even"),
    ])
    def test_rng_state_no_run_writes_rejected(self, tmp_path, offset, flip, message):
        raw = bytearray(checkpoint_bytes(self._make()))
        assert raw[offset] & flip == (flip & 1)
        raw[offset] ^= flip
        path = tmp_path / "model.zsih"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_repeated_weight_name_rejected(self, tmp_path):
        # a name of the same length: every length and offset stays valid
        raw = checkpoint_bytes(self._make(max_iters=2))
        assert raw.count(b"enc_sk.w") == 1
        path = tmp_path / "model.zsih"
        path.write_bytes(raw.replace(b"enc_sk.w", b"enc_im.w"))
        with pytest.raises(FormatError, match="checkpoint repeats weight 'enc_im.w'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims, message", [
        (struct.pack("<B65I", 65, *[1] * 65), "maximum supported dimension"),
        (struct.pack("<B3I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1),
         r"array of shape \(0, 4294967295, 4294967295\)"),
    ])
    def test_shape_numpy_cannot_hold_rejected(self, tmp_path, dims, message):
        ckpt = self._make()
        ckpt.params = {"s": np.array(0.0)}
        ckpt.opt_m, ckpt.opt_v = dict(ckpt.params), dict(ckpt.params)
        # the weight "s": name length, name, then rank 0 and its one f64
        raw = checkpoint_bytes(ckpt).replace(b"\x01\x00s\x00" + bytes(8),
                                             b"\x01\x00s" + dims + bytes(8))
        path = tmp_path / "model.zsih"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_weight_shapes_survive_a_round_trip(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "model.zsih"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for field in ("params", "opt_m", "opt_v"):
            before = {k: v.shape for k, v in getattr(ckpt, field).items()}
            after = {k: v.shape for k, v in getattr(loaded, field).items()}
            assert after == before
        assert loaded.params["attn_sk.score_bias"].shape == (1,)
        assert loaded.build_params().shapes == before

    def test_zero_dim_array_keeps_its_shape(self, tmp_path):
        ckpt = self._make()
        ckpt.params = {"s": np.array(0.25)}
        ckpt.opt_m, ckpt.opt_v = {"s": np.array(0.0)}, {"s": np.array(1.0)}
        path = tmp_path / "model.zsih"
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).params["s"].shape == ()

    @pytest.mark.parametrize("field, name, shape", [
        ("params", "enc_sk.w", (3, 3)),
        ("opt_m", "dec.b_mu", (2,)),
        ("opt_v", "gcn1.w_theta", (9, 4)),
        # a value no run writes, planted in the weight's last entry
        ("params", "enc_im.w", np.nan),
        ("params", "attn_sk.score_bias", np.inf),
        ("opt_m", "gcn2.w_theta", -np.inf),
        ("opt_m", "attn_sk.score_weights", np.nan),
        ("opt_v", "enc_sk.b", -1e-300),
        ("opt_v", "dec.b_logvar", np.nan),
    ])
    def test_build_params_rejects_mis_shaped_arrays(self, field, name, shape):
        """A mis-shaped weight or moment, a non-finite weight or first
        moment, and a second moment below 0 or NaN are each a FormatError
        naming the field and the weight."""
        ckpt = self._make()
        arrays = getattr(ckpt, field)
        if isinstance(shape, tuple):
            arrays[name] = np.zeros(shape)
            match = f"{field} weight '{name}' has shape"
        else:
            arrays[name].reshape(-1)[-1] = shape
            match = f"{field} weight '{name}' holds {shape!r}"
        with pytest.raises(FormatError, match=re.escape(match)):
            ckpt.build_params()

    def test_build_params_accepts_infinite_second_moment(self):
        # v += (1 - beta2) g^2 overflows for a finite |g| above about 1e154
        ckpt = self._make()
        ckpt.opt_v["enc_im.w"] = np.full_like(ckpt.opt_v["enc_im.w"], np.inf)
        params = ckpt.build_params()
        assert np.isinf(ckpt.build_opt_state(params).v).sum() == ckpt.opt_v["enc_im.w"].size

    def test_build_opt_state_restores_step_and_moments(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=3)
        ckpt = train(config, dataset)
        params = ckpt.build_params()
        state = ckpt.build_opt_state(params)
        assert state.step == 3
        np.testing.assert_array_equal(state.m, params.flatten(ckpt.opt_m))
        np.testing.assert_array_equal(state.v, params.flatten(ckpt.opt_v))

    def test_build_params_rejects_another_fusion_mode(self):
        ckpt = self._make()
        ckpt.config = tiny_config(max_iters=4, fusion_mode="concat")
        with pytest.raises(FormatError, match="params lacks weight 'fusion.w_proj'"):
            ckpt.build_params()

    def test_resume_rejects_missing_moment(self):
        config, dataset, _, _, _, _, _ = tiny_setup(max_iters=2)
        ckpt = train(config, dataset)
        del ckpt.opt_v["enc_im.b"]
        with pytest.raises(FormatError, match="opt_v lacks weight 'enc_im.b'"):
            train(tiny_config(max_iters=4), dataset, resume=ckpt)
